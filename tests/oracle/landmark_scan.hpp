// Landmark scan: the pre-TraceFold post-hoc phase breakdown, kept
// verbatim as the test oracle of obs::TraceFold (src/obs/analysis.cpp).
//
// It buckets spans per trace, sorts each trace by span id and scans it
// for the pipeline landmarks (first bus, first dissect, longest repo
// wait before the first construct, first deliver after it), then keeps
// every sample in an exact, sorted LatencySet. Its per-flow samples
// define what phase_breakdown and the streaming WindowAggregator must
// reproduce (tests/obs/telemetry_test.cpp).
//
// One deliberate difference from production: a trace whose root span
// is missing (a bounded collector ring evicted it) is keyed here by
// its first surviving span; production reports no flow for it. Oracle
// comparisons therefore use traces whose roots survive.
//
// Do not "improve" this code: its value is being the old semantics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/span.hpp"
#include "util/symbol.hpp"
#include "util/time.hpp"

namespace decos::oracle {

/// Exact latency sample set (nearest-rank percentiles over the sorted
/// samples -- no binning, unlike the metrics histograms).
class LatencySet {
 public:
  void add(Duration d) {
    samples_.push_back(d.ns());
    sorted_ = false;
  }
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  std::int64_t min() const {
    if (samples_.empty()) return 0;
    ensure_sorted();
    return samples_.front();
  }
  std::int64_t max() const {
    if (samples_.empty()) return 0;
    ensure_sorted();
    return samples_.back();
  }
  double mean() const {
    if (samples_.empty()) return 0.0;
    double sum = 0.0;
    for (const std::int64_t s : samples_) sum += static_cast<double>(s);
    return sum / static_cast<double>(samples_.size());
  }
  /// Nearest-rank percentile in ns; p in [0,1].
  std::int64_t percentile(double p) const {
    if (samples_.empty()) return 0;
    ensure_sorted();
    if (p <= 0.0) return samples_.front();
    if (p >= 1.0) return samples_.back();
    // Nearest-rank (ceil) on the sorted samples.
    const auto rank =
        static_cast<std::size_t>(p * static_cast<double>(samples_.size()) + 0.999999);
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    return samples_[std::min(index, samples_.size() - 1)];
  }

 private:
  void ensure_sorted() const {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }
  mutable std::vector<std::int64_t> samples_;
  mutable bool sorted_ = true;
};

/// Per-flow phase latency sets, keyed like obs::FlowHealth.
struct FlowStats {
  std::map<std::string, LatencySet> phases;  // key: kBreakdownPhases entry
  std::size_t traces = 0;
};

using Breakdown = std::map<std::string, FlowStats>;

inline Breakdown landmark_scan(const std::vector<obs::Span>& spans) {
  using obs::Phase;
  using obs::Span;
  // Bucket spans per trace, preserving emission (= causal) order.
  std::unordered_map<std::uint64_t, std::vector<const Span*>> traces;
  std::vector<std::uint64_t> order;  // deterministic traversal
  for (const Span& s : spans) {
    if (s.trace_id == 0) continue;
    auto [it, inserted] = traces.try_emplace(s.trace_id);
    if (inserted) order.push_back(s.trace_id);
    it->second.push_back(&s);
  }

  Breakdown breakdown;
  for (const std::uint64_t trace_id : order) {
    std::vector<const Span*>& chain = traces[trace_id];
    std::sort(chain.begin(), chain.end(),
              [](const Span* a, const Span* b) { return a->span_id < b->span_id; });

    const Span* root = chain.front();

    // First-delivery pipeline landmarks, in causal (span id) order. A TT
    // state port re-sends its freshest instance every round, so one trace
    // accumulates bus/dissect/construct/deliver spans per round; the
    // phase breakdown measures the *first* completion of each stage --
    // the latency until the information reached the other side -- which
    // matches what the latency benches measure in-process.
    const Span* construct = nullptr;  // first construction in the trace
    for (const Span* s : chain) {
      if (s->phase == Phase::kConstruct) {
        construct = s;
        break;
      }
    }

    const Span* first_bus = nullptr;
    const Span* dissect = nullptr;
    const Span* repo_longest = nullptr;  // longest element wait before construction
    const Span* deliver = nullptr;       // first delivery after construction
    for (const Span* s : chain) {
      switch (s->phase) {
        case Phase::kBus:
          if (first_bus == nullptr) first_bus = s;
          break;
        case Phase::kDissect:
          if (dissect == nullptr) dissect = s;
          break;
        case Phase::kRepoWait:
          if ((construct == nullptr || s->span_id < construct->span_id) &&
              (repo_longest == nullptr || s->duration() > repo_longest->duration()))
            repo_longest = s;
          break;
        case Phase::kConstruct:
          break;
        case Phase::kDeliver:
          // Deliveries into the gateway's own input port precede the
          // construction span; the end-to-end delivery follows it. In a
          // gateway-less trace the first delivery is the end-to-end one.
          if (deliver == nullptr &&
              (construct == nullptr || s->span_id > construct->span_id))
            deliver = s;
          break;
        case Phase::kSend:
          break;
      }
      if (deliver != nullptr) break;  // pipeline complete
    }

    const Span* last = deliver != nullptr ? deliver : chain.back();
    std::string key = symbol_name(root->name);
    if (last->name != root->name) key += "->" + symbol_name(last->name);

    FlowStats& flow = breakdown[key];
    ++flow.traces;
    flow.phases["total"].add(last->end - root->start);
    if (first_bus != nullptr) flow.phases["ingress"].add(first_bus->end - root->start);
    if (dissect != nullptr && first_bus != nullptr)
      flow.phases["dissect"].add(dissect->end - first_bus->end);
    if (repo_longest != nullptr) flow.phases["repo_wait"].add(repo_longest->duration());
    if (construct != nullptr && repo_longest != nullptr)
      flow.phases["construct"].add(construct->end - repo_longest->end);
    if (deliver != nullptr) {
      if (construct != nullptr) {
        flow.phases["delivery"].add(deliver->end - construct->end);
      } else if (first_bus != nullptr) {
        flow.phases["delivery"].add(deliver->end - first_bus->end);
      }
    }
  }
  return breakdown;
}

}  // namespace decos::oracle
