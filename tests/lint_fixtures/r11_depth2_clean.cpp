// R11 depth bound: the allocation is two call-edges below the profiled
// function — outside R11's radius of one call-edge, so it stays clean.
namespace fx11e {

void fx11e_inner() {
  std::vector<int> held;
  held.reserve(16);
}

void fx11e_middle() { fx11e_inner(); }

void fx11e_hot() {
  HVC_PROF_SCOPE(obs::prof::Hook::kFixture);
  fx11e_middle();
}

}  // namespace fx11e
