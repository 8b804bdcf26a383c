// R11 seed: the allocation sits one call-edge below the profiled
// function; R11's one-call-edge radius must still reach it.
namespace fx11d {

void fx11d_grow(std::vector<int>& v) {
  v.resize(64);
}

void fx11d_hot() {
  HVC_PROF_SCOPE(obs::prof::Hook::kFixture);
  std::vector<int> scratch;
  fx11d_grow(scratch);
}

}  // namespace fx11d
