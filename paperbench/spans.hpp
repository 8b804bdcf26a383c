// In-memory span recorder for the traced run.
//
// Every span is timed with the TSC (obs::prof::cycles) and closes into
// per-name totals: calls, inclusive cycles and self cycles (inclusive
// minus the inclusive time of direct children). Spans nest strictly, so
// the self times of a subtree add up to its root's inclusive time.
//
// Full span records (name, start, end, parent) are kept for the first
// kKeepPerName spans of each name and written out as JSONL when the run
// ends; later spans still count in the totals. Per-call spans (one per
// steering decision or CCA query) number in the millions, so keeping all
// of them would cost more memory than the simulation itself.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/prof.hpp"

namespace paperbench {

// X(enumerator, exported name). The exported name is the per-layer metric
// prefix (README.md, "Per-layer metrics").
#define PAPERBENCH_SPANS(X)         \
  X(kPoint, "exp.point")            \
  X(kTraceGen, "trace.gen")         \
  X(kCorpus, "app.web.corpus")      \
  X(kSimRun, "sim.run")             \
  X(kSteerPolicy, "steer.policy")   \
  X(kCca, "transport.cca")          \
  X(kPopRun, "pop.run")             \
  X(kStatsExport, "stats.export")   \
  X(kResults, "exp.results")        \
  X(kSpec, "exp.spec")

enum class Span : std::uint8_t {
#define PAPERBENCH_ENUM(e, n) e,
  PAPERBENCH_SPANS(PAPERBENCH_ENUM)
#undef PAPERBENCH_ENUM
};

inline constexpr std::array kSpanNames = {
#define PAPERBENCH_NAME(e, n) n,
    PAPERBENCH_SPANS(PAPERBENCH_NAME)
#undef PAPERBENCH_NAME
};
inline constexpr std::size_t kSpanCount = kSpanNames.size();

class SpanRecorder {
 public:
  static constexpr std::size_t kKeepPerName = 2048;
  static constexpr std::uint32_t kNoParent =
      std::numeric_limits<std::uint32_t>::max();

  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t incl_cycles = 0;
    std::uint64_t self_cycles = 0;
  };

  void begin(Span s) {
    Frame f;
    f.span = s;
    f.start = hvc::obs::prof::cycles();
    const auto i = static_cast<std::size_t>(s);
    if (kept_[i] < kKeepPerName) {
      ++kept_[i];
      f.record = static_cast<std::uint32_t>(records_.size());
      records_.push_back({s, parent_record(), f.start, 0});
    }
    stack_.push_back(f);
  }

  void end() {
    const std::uint64_t now = hvc::obs::prof::cycles();
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = now - f.start;
    Totals& t = totals_[static_cast<std::size_t>(f.span)];
    ++t.calls;
    t.incl_cycles += dur;
    t.self_cycles += dur > f.child_cycles ? dur - f.child_cycles : 0;
    if (!stack_.empty()) stack_.back().child_cycles += dur;
    if (f.record != kNoParent) records_[f.record].end = now;
  }

  /// True while a span named `s` is open anywhere on the stack.
  [[nodiscard]] bool inside(Span s) const {
    for (const Frame& f : stack_) {
      if (f.span == s) return true;
    }
    return false;
  }

  [[nodiscard]] const Totals& totals(Span s) const {
    return totals_[static_cast<std::size_t>(s)];
  }

  [[nodiscard]] std::size_t retained() const { return records_.size(); }

  /// One JSON object per retained span; times in ns from the first span.
  [[nodiscard]] std::string to_jsonl(double cycles_per_ns) const;

 private:
  struct Frame {
    Span span = Span::kPoint;
    std::uint64_t start = 0;
    std::uint64_t child_cycles = 0;
    std::uint32_t record = kNoParent;
  };
  struct Record {
    Span span;
    std::uint32_t parent;
    std::uint64_t start;
    std::uint64_t end;
  };

  [[nodiscard]] std::uint32_t parent_record() const {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->record != kNoParent) return it->record;
    }
    return kNoParent;
  }

  std::vector<Frame> stack_;
  std::vector<Record> records_;
  std::array<std::size_t, kSpanCount> kept_{};
  std::array<Totals, kSpanCount> totals_{};
};

/// RAII span: begin on construction, end on destruction.
class Scope {
 public:
  Scope(SpanRecorder& rec, Span s) : rec_(rec) { rec_.begin(s); }
  ~Scope() { rec_.end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& rec_;
};

}  // namespace paperbench
