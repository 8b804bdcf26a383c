#include "trace/trace.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace hvc::trace {

CapacityTrace::CapacityTrace(std::vector<Time> opportunities,
                             Duration period, std::int64_t mtu)
    : opportunities_(std::make_shared<const std::vector<Time>>(
          std::move(opportunities))),
      period_(period),
      mtu_(mtu) {}

CapacityTrace CapacityTrace::constant(RateBps rate, Duration period,
                                      std::int64_t mtu) {
  if (rate <= 0) throw std::invalid_argument("constant trace: rate <= 0");
  if (period <= 0) throw std::invalid_argument("constant trace: period <= 0");
  const Duration gap = sim::transmission_time(mtu, rate);
  std::vector<Time> opps;
  opps.reserve(static_cast<std::size_t>((period - 1) / gap + 1));
  for (Time at = 0; at < period; at += gap) opps.push_back(at);
  return CapacityTrace(std::move(opps), period, mtu);
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
  return CapacityTrace(std::move(opportunities), period, mtu);
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

std::string CapacityTrace::to_mahimahi() const {
  std::ostringstream out;
  for (const Time t : *opportunities_) {
    out << (t / 1'000'000) << '\n';
  }
  return out.str();
}

Time CapacityTrace::next_opportunity(Time t) const {
  const std::vector<Time>& opps = *opportunities_;
  if (opps.empty()) return sim::kTimeNever;
  if (t < 0) t = -1;  // treat pre-start queries as "before cycle 0"
  const std::int64_t cycle = t < 0 ? 0 : t / period_;
  const Time offset = t - cycle * period_;
  auto it = std::upper_bound(opps.begin(), opps.end(), offset);
  if (it != opps.end()) return cycle * period_ + *it;
  return (cycle + 1) * period_ + opps.front();
}

std::int64_t CapacityTrace::opportunities_in(Time from, Time to) const {
  const std::vector<Time>& opps = *opportunities_;
  if (opps.empty() || to <= from) return 0;
  auto count_upto = [&](Time t) -> std::int64_t {
    // opportunities in [0, t]
    if (t < 0) return 0;
    const std::int64_t cycle = t / period_;
    const Time offset = t - cycle * period_;
    const auto within =
        std::upper_bound(opps.begin(), opps.end(), offset) - opps.begin();
    return cycle * static_cast<std::int64_t>(opps.size()) + within;
  };
  return count_upto(to) - count_upto(from);
}

double CapacityTrace::average_rate_bps() const {
  if (opportunities_->empty()) return 0.0;
  const double bytes =
      static_cast<double>(opportunities_->size()) * static_cast<double>(mtu_);
  return bytes * 8.0 / sim::to_seconds(period_);
}

double CapacityTrace::min_windowed_rate_bps(Duration window) const {
  if (opportunities_->empty() || window <= 0) return 0.0;
  double min_rate = std::numeric_limits<double>::infinity();
  for (Time start = 0; start < period_; start += window / 4) {
    const auto n = opportunities_in(start, start + window);
    const double rate = static_cast<double>(n) * static_cast<double>(mtu_) *
                        8.0 / sim::to_seconds(window);
    min_rate = std::min(min_rate, rate);
  }
  return min_rate;
}

}  // namespace hvc::trace
