#include "trace/trace.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace hvc::trace {

CapacityTrace::CapacityTrace(Schedule schedule, Duration period,
                             std::int64_t mtu)
    : schedule_(std::make_shared<const Schedule>(std::move(schedule))),
      period_(period),
      mtu_(mtu) {}

CapacityTrace::Schedule CapacityTrace::explicit_schedule(
    std::vector<Time> sorted) {
  Schedule sched;
  sched.count = static_cast<std::int64_t>(sorted.size());
  if (!sorted.empty()) sched.first = sorted.front();
  sched.times = std::move(sorted);
  return sched;
}

CapacityTrace CapacityTrace::constant(RateBps rate, Duration period,
                                      std::int64_t mtu) {
  if (rate <= 0) throw std::invalid_argument("constant trace: rate <= 0");
  if (period <= 0) throw std::invalid_argument("constant trace: period <= 0");
  const Duration gap = sim::transmission_time(mtu, rate);
  std::vector<Time> opps;
  opps.reserve(static_cast<std::size_t>((period - 1) / gap + 1));
  for (Time at = 0; at < period; at += gap) opps.push_back(at);
  return CapacityTrace(explicit_schedule(std::move(opps)), period, mtu);
}

CapacityTrace CapacityTrace::from_opportunities(std::vector<Time> opportunities,
                                                Duration period,
                                                std::int64_t mtu) {
  if (period <= 0) throw std::invalid_argument("trace: period <= 0");
  // Generators emit in time order; the O(n) check spares them a re-sort.
  if (!std::is_sorted(opportunities.begin(), opportunities.end())) {
    std::sort(opportunities.begin(), opportunities.end());
  }
  if (!opportunities.empty() &&
      (opportunities.front() < 0 || opportunities.back() >= period)) {
    throw std::invalid_argument("trace: opportunity outside [0, period)");
  }
  return CapacityTrace(explicit_schedule(std::move(opportunities)), period,
                       mtu);
}

CapacityTrace CapacityTrace::from_step_counts(
    Duration step, const std::vector<std::int64_t>& counts, Duration period,
    std::int64_t mtu) {
  if (step <= 0) throw std::invalid_argument("stepped trace: step <= 0");
  if (period <= 0) throw std::invalid_argument("trace: period <= 0");
  if (counts.size() != static_cast<std::size_t>((period - 1) / step + 1)) {
    throw std::invalid_argument(
        "stepped trace: step count != ceil(period / step)");
  }
  Schedule sched;
  sched.step = step;
  sched.prefix.reserve(counts.size() + 1);
  sched.prefix.push_back(0);
  // step·(n+1) bounds every product the queries form, so it must fit.
  const std::int64_t max_count =
      std::numeric_limits<std::int64_t>::max() / step - 1;
  for (const std::int64_t n : counts) {
    std::int64_t total = 0;
    if (n < 0 || n > max_count ||
        __builtin_add_overflow(sched.prefix.back(), n, &total)) {
      throw std::invalid_argument("stepped trace: step count out of range");
    }
    sched.prefix.push_back(total);
  }
  // Every step but the last ends by `period`; keep the last step's
  // opportunities that fall before it.
  const std::size_t last = counts.size() - 1;
  const auto last_start = static_cast<Duration>(last) * step;
  sched.count = sched.prefix[last] +
                sched.within_step(last, period - 1 - last_start);
  if (sched.count > 0) sched.first = sched.next_in_cycle(-1, period);
  return CapacityTrace(std::move(sched), period, mtu);
}

CapacityTrace CapacityTrace::parse_mahimahi(const std::string& text,
                                            std::int64_t mtu) {
  // Largest timestamp whose period, (ms + 1) in ns, still fits in Time.
  constexpr std::int64_t kMaxMs =
      std::numeric_limits<Time>::max() / sim::milliseconds(1) - 1;
  std::vector<Time> opps;
  std::istringstream in(text);
  std::string line;
  std::int64_t line_no = 0;
  std::int64_t last_ms = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const auto fail = [&](const std::string& what) {
      return std::invalid_argument("mahimahi trace: line " +
                                   std::to_string(line_no) + ": " + what);
    };
    std::size_t pos = 0;
    std::int64_t ms = 0;
    try {
      ms = std::stoll(line, &pos);
    } catch (const std::invalid_argument&) {
      throw fail("not a number: '" + line + "'");
    } catch (const std::out_of_range&) {
      throw fail("timestamp out of range: '" + line + "'");
    }
    if (line.find_first_not_of(" \t\r", pos) != std::string::npos) {
      throw fail("trailing characters: '" + line + "'");
    }
    if (ms < 0) throw fail("negative time");
    if (ms > kMaxMs) throw fail("timestamp out of range: '" + line + "'");
    if (ms < last_ms) throw fail("non-monotonic timestamps");
    last_ms = ms;
    opps.push_back(sim::milliseconds(ms));
  }
  if (opps.empty()) throw std::invalid_argument("mahimahi trace: empty");
  // Mahimahi loops after the final timestamp; opportunities AT the final
  // timestamp belong to this period, so the period is last+1ms.
  const Duration period = sim::milliseconds(last_ms + 1);
  return from_opportunities(std::move(opps), period, mtu);
}

std::int64_t CapacityTrace::Schedule::within_step(std::size_t s,
                                                  Duration in) const {
  // Opportunity i lies at step·(i+1)/(n+1) (floored) into the step, which
  // is <= in exactly when step·(i+1) < (in+1)·(n+1).
  const std::int64_t n = step_count(s);
  return std::min(n, ((in + 1) * (n + 1) - 1) / step);
}

Time CapacityTrace::Schedule::step_time(std::size_t s, std::int64_t i) const {
  return static_cast<Time>(s) * step + step * (i + 1) / (step_count(s) + 1);
}

std::int64_t CapacityTrace::Schedule::count_in_cycle(Time offset) const {
  if (step == 0) {
    return std::upper_bound(times.begin(), times.end(), offset) -
           times.begin();
  }
  const auto s = static_cast<std::size_t>(offset / step);
  return prefix[s] + within_step(s, offset - static_cast<Time>(s) * step);
}

Time CapacityTrace::Schedule::next_in_cycle(Time offset,
                                            Duration period) const {
  if (step == 0) {
    const auto it = std::upper_bound(times.begin(), times.end(), offset);
    return it == times.end() ? sim::kTimeNever : *it;
  }
  return next_pos(offset, period).at;
}

CapacityTrace::Schedule::Pos CapacityTrace::Schedule::next_pos(
    Time offset, Duration period) const {
  std::size_t s = 0;
  std::int64_t within = 0;
  if (offset >= 0) {
    s = static_cast<std::size_t>(offset / step);
    within = within_step(s, offset - static_cast<Time>(s) * step);
  }
  if (within < step_count(s)) {
    // The next one is in this step, unless it falls in the last step's
    // tail past the period.
    const Time at = step_time(s, within);
    if (at >= period) return {};
    return {at, s, within};
  }
  const std::int64_t k = prefix[s + 1];  // index of the next opportunity
  if (k >= count) return {};
  // Skip the empty steps: gallop to a bracket with prefix[lo] == k <
  // prefix[hi], then binary-search it for the step that holds k.
  // prefix.back() >= count > k bounds the search.
  const std::size_t last = prefix.size() - 1;
  std::size_t lo = s + 1;
  std::size_t stride = 1;
  while (lo + stride < last && prefix[lo + stride] <= k) {
    lo += stride;
    stride *= 2;
  }
  const std::size_t hi = std::min(lo + stride, last);
  const auto busy = static_cast<std::size_t>(
      std::upper_bound(prefix.begin() + static_cast<std::ptrdiff_t>(lo),
                       prefix.begin() + static_cast<std::ptrdiff_t>(hi) + 1,
                       k) -
      prefix.begin() - 1);
  return {step_time(busy, 0), busy, 0};
}

std::string CapacityTrace::to_mahimahi() const {
  std::ostringstream out;
  for (const Time t : expand()) {
    out << (t / 1'000'000) << '\n';
  }
  return out.str();
}

std::vector<Time> CapacityTrace::expand() const {
  const Schedule& sched = *schedule_;
  if (sched.step == 0) return sched.times;
  std::vector<Time> out;
  out.reserve(static_cast<std::size_t>(sched.count));
  for (std::size_t s = 0; s + 1 < sched.prefix.size(); ++s) {
    for (std::int64_t i = 0; i < sched.step_count(s); ++i) {
      const Time at = sched.step_time(s, i);
      if (at < period_) out.push_back(at);
    }
  }
  return out;
}

Time CapacityTrace::next_opportunity(Time t) const {
  const Schedule& sched = *schedule_;
  if (sched.count == 0) return sim::kTimeNever;
  if (t < 0) return sched.first;  // pre-start queries: cycle 0's first
  const Time base = t / period_ * period_;
  const Time at = sched.next_in_cycle(t - base, period_);
  return at != sim::kTimeNever ? base + at : base + period_ + sched.first;
}

std::int64_t CapacityTrace::count_upto(Time t) const {
  const Schedule& sched = *schedule_;
  if (sched.count == 0 || t < 0) return 0;
  const std::int64_t cycle = t / period_;
  return cycle * sched.count + sched.count_in_cycle(t - cycle * period_);
}

Time CapacityTrace::opportunity_at(std::int64_t k) const {
  const Schedule& sched = *schedule_;
  const Time base = k / sched.count * period_;
  const std::int64_t j = k % sched.count;
  if (sched.step == 0) return base + sched.times[static_cast<std::size_t>(j)];
  const auto s = std::upper_bound(sched.prefix.begin(), sched.prefix.end(),
                                  j) -
                 sched.prefix.begin() - 1;
  return base + sched.step_time(static_cast<std::size_t>(s),
                                j - sched.prefix[static_cast<std::size_t>(s)]);
}

std::int64_t CapacityTrace::opportunities_in(Time from, Time to) const {
  if (to <= from) return 0;
  return count_upto(to) - count_upto(from);
}

double CapacityTrace::average_rate_bps() const {
  if (schedule_->count == 0) return 0.0;
  const double bytes =
      static_cast<double>(schedule_->count) * static_cast<double>(mtu_);
  return bytes * 8.0 / sim::to_seconds(period_);
}

double CapacityTrace::min_windowed_rate_bps(Duration window) const {
  if (schedule_->count == 0 || window <= 0) return 0.0;
  const Duration grid = std::max<Duration>(window / 4, 1);
  std::int64_t min_count = std::numeric_limits<std::int64_t>::max();
  Time start = 0;
  while (start < period_) {
    min_count = std::min(min_count, opportunities_in(start, start + window));
    // Until the window start passes the next opportunity, the count at or
    // before the start stays put and the one at or before the end can
    // only grow, so the first grid point of that run has its smallest
    // count: skip to the first grid point at or past that opportunity.
    const Time next = next_opportunity(start);
    start = std::max(start + grid, (next + grid - 1) / grid * grid);
  }
  return static_cast<double>(min_count) * static_cast<double>(mtu_) * 8.0 /
         sim::to_seconds(window);
}

void TraceCursor::enter_step(const CapacityTrace& trace, std::int64_t cycle,
                             std::size_t step) {
  const CapacityTrace::Schedule& sched = *trace.schedule_;
  cycle_ = cycle;
  base_ = cycle * trace.period_;
  step_ = step;
  step_start_ = base_ + static_cast<Time>(step) * sched.step;
  step_end_ = std::min(step_start_ + sched.step, base_ + trace.period_);
  n_ = sched.step_count(step);
  at_ = sim::kTimeNever;
}

void TraceCursor::locate(const CapacityTrace& trace, Time t) {
  const std::int64_t cycle = t / trace.period_;
  const Time offset = t - cycle * trace.period_;
  enter_step(trace, cycle,
             static_cast<std::size_t>(offset / trace.schedule_->step));
}

Time TraceCursor::next_stepped(const CapacityTrace& trace, Time t) {
  const CapacityTrace::Schedule& sched = *trace.schedule_;
  if (sched.count == 0) return sim::kTimeNever;
  std::int64_t cycle = 0;
  Time offset = -1;  // before cycle 0, for t < 0
  if (t >= 0) {
    cycle = t / trace.period_;
    offset = t - cycle * trace.period_;
  }
  CapacityTrace::Schedule::Pos pos = sched.next_pos(offset, trace.period_);
  if (pos.at == sim::kTimeNever) {
    ++cycle;
    pos = sched.next_pos(-1, trace.period_);
  }
  enter_step(trace, cycle, pos.step);
  i_ = pos.i;
  at_ = base_ + pos.at;
  return at_;
}

}  // namespace hvc::trace
