// Time-varying link capacity traces with Mahimahi semantics.
//
// A trace is a looping schedule of *delivery opportunities*: instants at
// which the link may transmit one MTU's worth of bytes. This is exactly the
// model used by Mahimahi [33] and by DChannel's trace replay — capacity
// variation (including outages) then produces queueing-delay variation
// naturally, which is the phenomenon that confuses delay-based CCAs
// (Fig. 1) and that priority steering routes around (Fig. 2).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/units.hpp"

namespace hvc::trace {

using sim::Duration;
using sim::RateBps;
using sim::Time;

/// Immutable once built: copies share one opportunity vector, so passing a
/// multi-MB 5G trace through profiles, configs and links costs a refcount.
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

  /// Number of opportunities in simulated interval (from, to].
  [[nodiscard]] std::int64_t opportunities_in(Time from, Time to) const;

  [[nodiscard]] std::int64_t mtu_bytes() const { return mtu_; }
  [[nodiscard]] Duration period() const { return period_; }
  [[nodiscard]] std::size_t opportunities_per_period() const {
    return opportunities_->size();
  }
  [[nodiscard]] const std::vector<Time>& opportunities() const {
    return *opportunities_;
  }

  /// Long-run average rate implied by the trace.
  [[nodiscard]] double average_rate_bps() const;

  /// Minimum average rate over any window of the given width (worst-case
  /// throughput seen by an application); used to validate generators.
  [[nodiscard]] double min_windowed_rate_bps(Duration window) const;

 private:
  CapacityTrace(std::vector<Time> opportunities, Duration period,
                std::int64_t mtu);

  // Sorted, within [0, period_); shared by every copy. Null only in a
  // moved-from trace.
  std::shared_ptr<const std::vector<Time>> opportunities_;
  Duration period_ = sim::seconds(1);
  std::int64_t mtu_ = 1500;
};

}  // namespace hvc::trace
