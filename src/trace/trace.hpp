// Time-varying link capacity traces with Mahimahi semantics.
//
// A trace is a looping schedule of *delivery opportunities*: instants at
// which the link may transmit one MTU's worth of bytes. This is exactly the
// model used by Mahimahi [33] and by DChannel's trace replay — capacity
// variation (including outages) then produces queueing-delay variation
// naturally, which is the phenomenon that confuses delay-based CCAs
// (Fig. 1) and that priority steering routes around (Fig. 2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/units.hpp"

namespace hvc::trace {

using sim::Duration;
using sim::RateBps;
using sim::Time;

/// Immutable once built: copies share one schedule, so passing a long 5G
/// trace through profiles, configs and links costs a refcount.
///
/// A schedule is stored in one of two forms, fixed at construction:
///   * explicit — the sorted opportunity times (constant, TSN, Mahimahi
///     and from_opportunities traces);
///   * stepped — per-step opportunity counts, the form the Markov
///     generator decides in (from_step_counts). Times are computed on
///     demand, so memory is O(steps), not O(opportunities).
/// Every query below gives the same answer on both forms of one schedule.
class CapacityTrace {
 public:
  /// A constant-rate link expressed as evenly spaced opportunities.
  static CapacityTrace constant(RateBps rate, Duration period = sim::seconds(1),
                                std::int64_t mtu = 1500);

  /// Build from explicit opportunity times in [0, period). Unsorted input
  /// is sorted; duplicates are allowed (multiple MTUs in one instant).
  static CapacityTrace from_opportunities(std::vector<Time> opportunities,
                                          Duration period,
                                          std::int64_t mtu = 1500);

  /// Build the stepped form: step s (0-based) grants n = counts[s]
  /// opportunities at s·step + step·(i+1)/(n+1) for i < n (integer
  /// arithmetic), spread evenly inside the step. Times at or past `period`
  /// are dropped, so `counts` must cover the period exactly:
  /// counts.size() == ceil(period / step).
  static CapacityTrace from_step_counts(Duration step,
                                        const std::vector<std::int64_t>& counts,
                                        Duration period,
                                        std::int64_t mtu = 1500);

  /// Parse Mahimahi's trace format: one millisecond timestamp per line,
  /// each granting one MTU delivery; the last timestamp defines the loop
  /// period. Throws std::invalid_argument ("mahimahi trace: line N: ...")
  /// on malformed input.
  static CapacityTrace parse_mahimahi(const std::string& text,
                                      std::int64_t mtu = 1500);

  /// Serialize to Mahimahi's format (millisecond resolution).
  [[nodiscard]] std::string to_mahimahi() const;

  /// First delivery opportunity at a time strictly greater than `t`.
  /// Loops over the period indefinitely. Returns kTimeNever only for an
  /// empty trace.
  [[nodiscard]] Time next_opportunity(Time t) const;

  /// Number of opportunities in [0, t], counted over every cycle.
  [[nodiscard]] std::int64_t count_upto(Time t) const;

  /// Time of opportunity `k` (0-based, counted from time 0 over every
  /// cycle), so next_opportunity(t) == opportunity_at(count_upto(t)).
  /// Requires a non-empty trace and k >= 0.
  [[nodiscard]] Time opportunity_at(std::int64_t k) const;

  /// Number of opportunities in simulated interval (from, to].
  [[nodiscard]] std::int64_t opportunities_in(Time from, Time to) const;

  [[nodiscard]] std::int64_t mtu_bytes() const { return mtu_; }
  [[nodiscard]] Duration period() const { return period_; }
  [[nodiscard]] std::size_t opportunities_per_period() const {
    return static_cast<std::size_t>(schedule_->count);
  }
  [[nodiscard]] bool stepped() const { return schedule_->step > 0; }

  /// One period's opportunity times, materialized in time order. O(n)
  /// memory: for export and tests, not for the simulation path.
  [[nodiscard]] std::vector<Time> expand() const;

  /// True when both traces read one shared schedule (copies of one
  /// another), i.e. no copy between them duplicated the storage.
  [[nodiscard]] bool shares_storage_with(const CapacityTrace& other) const {
    return schedule_ == other.schedule_;
  }

  /// Long-run average rate implied by the trace.
  [[nodiscard]] double average_rate_bps() const;

  /// Minimum average rate over windows of the given width starting at
  /// multiples of max(window / 4, 1) within one period (worst-case
  /// throughput seen by an application); used to validate generators.
  [[nodiscard]] double min_windowed_rate_bps(Duration window) const;

 private:
  friend class TraceCursor;

  // One period's schedule in either form (see the class comment):
  //   explicit (step == 0): `times`, sorted, within [0, period);
  //   stepped (step > 0): step s grants prefix[s+1] - prefix[s]
  //     opportunities; `prefix` has one entry per step plus one. Only the
  //     last step can reach past the period, and `count` leaves out its
  //     times there.
  struct Schedule {
    std::vector<Time> times;
    Duration step = 0;
    std::vector<std::int64_t> prefix;
    std::int64_t count = 0;  ///< opportunities per period (either form)
    Time first = 0;          ///< earliest opportunity, when count > 0

    // Opportunities at or before `offset` in [0, period):
    [[nodiscard]] std::int64_t count_in_cycle(Time offset) const;
    // First opportunity strictly after `offset` (-1: before the cycle) in
    // this cycle, or kTimeNever when the rest of the cycle is empty:
    [[nodiscard]] Time next_in_cycle(Time offset, Duration period) const;

    // Stepped form only. Opportunities of step s at or before `in` ns
    // into the step:
    [[nodiscard]] std::int64_t within_step(std::size_t s, Duration in) const;
    // Offset from the cycle start of opportunity i of step s:
    [[nodiscard]] Time step_time(std::size_t s, std::int64_t i) const;
    [[nodiscard]] std::int64_t step_count(std::size_t s) const {
      return prefix[s + 1] - prefix[s];
    }
    // next_in_cycle, with the step and index of the answer.
    struct Pos {
      Time at = sim::kTimeNever;
      std::size_t step = 0;
      std::int64_t i = 0;
    };
    [[nodiscard]] Pos next_pos(Time offset, Duration period) const;
  };

  CapacityTrace(Schedule schedule, Duration period, std::int64_t mtu);
  // The explicit form of times already sorted within [0, period).
  static Schedule explicit_schedule(std::vector<Time> sorted);

  // Shared by every copy. Null only in a moved-from trace.
  std::shared_ptr<const Schedule> schedule_;
  Duration period_ = sim::seconds(1);
  std::int64_t mtu_ = 1500;
};

/// Forward-only position in a trace for callers whose query times never
/// decrease (a link's service loop, the ends of its rate window). Gives the
/// trace's own answers. A cursor serves one trace. On an explicit trace a
/// move gallops forward from the last position: O(1) when it passes a few
/// opportunities, O(log d) when it skips d of them, where the trace's own
/// queries binary-search the whole period. On a stepped trace it keeps
/// the step it is in: a count within that step, or the opportunity after
/// the last one it answered, costs one division, and a move to another
/// step is the trace's own O(1) step lookup (O(log d) across d empty
/// steps for next_after).
class TraceCursor {
 public:
  /// trace.count_upto(t).
  [[nodiscard]] std::int64_t count_upto(const CapacityTrace& trace, Time t) {
    const CapacityTrace::Schedule& sched = *trace.schedule_;
    if (t < 0) return 0;
    if (sched.step > 0) {
      if (t < step_start_ || t >= step_end_) locate(trace, t);
      return cycle_ * sched.count + sched.prefix[step_] +
             sched.within_step(step_, t - step_start_);
    }
    seek(trace, t);
    return cycle_ * sched.count + static_cast<std::int64_t>(idx_);
  }

  /// trace.next_opportunity(t).
  [[nodiscard]] Time next_after(const CapacityTrace& trace, Time t) {
    const CapacityTrace::Schedule& sched = *trace.schedule_;
    if (sched.step > 0) {
      // Every opportunity up to the last answer is <= t, so the one after
      // it, if later than t, is the answer.
      if (t >= at_ && i_ + 1 < n_) {
        const Time next = step_start_ + sched.step * (i_ + 2) / (n_ + 1);
        if (next > t && next < step_end_) {
          ++i_;
          at_ = next;
          return next;
        }
      }
      return next_stepped(trace, t);
    }
    if (sched.times.empty() || t < 0) return trace.next_opportunity(t);
    seek(trace, t);
    if (idx_ == sched.times.size()) {
      return base_ + trace.period_ + sched.first;
    }
    return base_ + sched.times[idx_];
  }

 private:
  // Explicit form, t >= 0: moves to `t`, after which `idx_` counts the
  // opportunities of cycle `cycle_` (starting at `base_`) that are <= t.
  // Defined here so the link's per-event calls inline.
  void seek(const CapacityTrace& trace, Time t) {
    const std::vector<Time>& opps = trace.schedule_->times;
    const std::int64_t cycle = t / trace.period_;
    if (cycle != cycle_) {
      // New cycle (or, defensively, time moved backwards): rehome.
      cycle_ = cycle;
      base_ = cycle * trace.period_;
      idx_ = 0;
    }
    // Gallop forward, then binary-search the last bracket: O(1) when the
    // cursor moves a few opportunities (a busy link), O(log d) when a
    // sparse caller skips d of them on a dense trace.
    const Time offset = t - base_;
    const std::size_t n = opps.size();
    std::size_t stride = 1;
    while (idx_ + stride <= n && opps[idx_ + stride - 1] <= offset) {
      idx_ += stride;
      stride *= 2;
    }
    const auto first = opps.begin() + static_cast<std::ptrdiff_t>(idx_);
    const auto last = opps.begin() +
                      static_cast<std::ptrdiff_t>(std::min(idx_ + stride, n));
    idx_ = static_cast<std::size_t>(std::upper_bound(first, last, offset) -
                                    opps.begin());
  }

  // Stepped form: move to the step holding t >= 0 (forgets the last
  // next_after answer).
  void locate(const CapacityTrace& trace, Time t);
  // Stepped form: next_after without the fast path; moves to the answer.
  Time next_stepped(const CapacityTrace& trace, Time t);
  void enter_step(const CapacityTrace& trace, std::int64_t cycle,
                  std::size_t step);

  std::int64_t cycle_ = 0;
  Time base_ = 0;  ///< cycle_ * period
  // Explicit form: opportunities of the cycle at or before the last seek.
  std::size_t idx_ = 0;
  // Stepped form: the step the cursor is in, [step_start_, step_end_)
  // in absolute time (the end clipped to the period), its count, and the
  // last next_after answer in it (index i_, time at_).
  std::size_t step_ = 0;
  Time step_start_ = 0;
  Time step_end_ = 0;
  std::int64_t n_ = 0;
  std::int64_t i_ = 0;
  Time at_ = sim::kTimeNever;
};

}  // namespace hvc::trace
