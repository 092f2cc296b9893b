// Per-flow phase breakdown of traced message journeys, plus the other
// post-hoc span/record analyses.
//
// TraceFold is the one definition of the phase breakdown. Both readers
// run it: phase_breakdown folds a span dump post-hoc (decotrace, benches
// in-process) and WindowAggregator (obs/telemetry) folds spans as the
// collector emits them (--telemetry-out, decomon). Both report into
// FlowHealth and render through flows_to_json, so on a loss-free run
// their numbers agree to the nanosecond.
#pragma once

#include <array>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "util/symbol.hpp"
#include "util/time.hpp"

namespace decos::obs {

/// Phase labels of the per-trace breakdown, in pipeline order. "total"
/// is root send start -> terminal span end.
inline constexpr const char* kBreakdownPhases[] = {"ingress",   "dissect",  "repo_wait",
                                                   "construct", "delivery", "total"};
inline constexpr std::size_t kTotalPhase = std::size(kBreakdownPhases) - 1;

/// Landmark fold of one trace. Construct it from the root span, then
/// add() every further span of the trace in span-id order (the order a
/// SpanSink sees them); add() returns true once the trace is complete
/// and later spans must not be added. finish() reports the samples:
///   ingress   = first bus delivery - root send
///   dissect   = first dissection - first bus delivery
///   repo_wait = longest repository wait before the first construction
///   construct = first construction - end of that longest wait
///   delivery  = terminal delivery - construction (first bus delivery
///               in a gateway-less trace)
///   total     = terminal span end - root send
/// The terminal span is the first delivery after the first
/// construction. A TT state port re-sends its freshest instance every
/// round, so a trace may carry several bus/dissect/construct/deliver
/// rounds; only the first completion of each stage counts. A delivery
/// before any construction (into a gateway's own input port, or the
/// end-to-end delivery of a gateway-less trace) is held pending: it is
/// terminal only if no construction ever follows, and then landmarks
/// folded after it do not count. A trace that never delivers ends at
/// its last span. Absent landmarks leave their phases without a sample.
class TraceFold {
 public:
  struct Sample {
    Symbol root;      // flow key: root name, "root->terminal" if they differ
    Symbol terminal;
    Instant end;      // terminal span end
    std::array<std::optional<std::int64_t>, std::size(kBreakdownPhases)> phase;  // ns; total set
  };

  TraceFold() = default;
  explicit TraceFold(const Span& root);

  bool add(const Span& s);
  Sample finish() const;

 private:
  struct Landmarks {
    std::optional<Instant> bus_end;      // first bus delivery
    std::optional<Instant> dissect_end;  // first dissection
    std::optional<Instant> repo_end;     // longest repo wait before the construction
    Duration repo_longest{};
  };

  Symbol root_name_{};
  Instant root_start_{};
  Symbol last_name_{};
  Instant last_end_{};
  Landmarks seen_;
  std::optional<Instant> construct_end_;
  std::optional<Instant> deliver_end_;  // pending or terminal delivery
  Symbol deliver_name_{};
  Landmarks at_deliver_;  // landmarks when the pending delivery arrived
};

/// "root" for same-name end-to-end traffic, "root->terminal" when a
/// gateway renamed/reconstructed the message.
std::string flow_key(Symbol root, Symbol terminal);

/// Whole-run per-flow phase health: the flow type of both readers.
struct FlowHealth {
  std::string flow;
  std::uint64_t traces = 0;
  std::int64_t deadline_ns = -1;  // -1 = no d_acc deadline registered
  std::int64_t bound_ns = -1;     // -1 = no static bound registered
  std::uint64_t deadline_miss = 0;
  std::uint64_t bound_miss = 0;

  struct PhaseAgg {
    std::uint64_t n = 0;
    std::uint64_t trunc = 0;
    std::int64_t min_ns = 0;
    std::int64_t max_ns = 0;
    std::int64_t sum_ns = 0;
    std::map<std::int64_t, std::uint64_t> values;  // run-length samples

    void add(std::int64_t v);
    /// Exact iff no telemetry window truncated its value list.
    bool exact() const { return trunc == 0; }
    double mean() const {
      return n == 0 ? 0.0 : static_cast<double>(sum_ns) / static_cast<double>(n);
    }
    /// Nearest-rank percentile in ns over the samples; p in [0,1].
    std::int64_t percentile(double p) const;
  };
  std::map<std::string, PhaseAgg> phases;  // key: kBreakdownPhases entry
};

/// Fold every trace of a span dump (span-id order within each trace)
/// and aggregate per flow, sorted by flow key. A trace whose root span
/// is missing (a bounded collector ring evicted it) yields no sample,
/// as in the streaming aggregator, which only opens traces at roots.
std::vector<FlowHealth> phase_breakdown(const std::vector<Span>& spans);

/// Flow records as JSON: flow, traces, deadline/bound fields when set,
/// and per phase (kBreakdownPhases order) n, exact, min_ns, p50_ns,
/// p90_ns, p99_ns, max_ns, mean_ns.
json::Value flows_to_json(const std::vector<FlowHealth>& flows);

/// Fault-containment summary from trace records.
struct ContainmentSummary {
  std::uint64_t faults_injected = 0;
  std::uint64_t frames_blocked = 0;     // bus guardian
  std::uint64_t gateway_blocked = 0;    // temporal/value/unknown suppression
  std::uint64_t automaton_errors = 0;
  std::uint64_t gateway_forwarded = 0;  // traffic that crossed a gateway
  std::map<std::string, std::uint64_t> blocked_reasons;  // detail prefix -> n
};

ContainmentSummary containment_summary(
    const std::vector<std::pair<std::string, TraceRecord>>& records);

json::Value containment_to_json(const ContainmentSummary& summary);

/// Validate parent/child integrity: every non-root span's parent exists
/// in the same trace and does not start after its child ends. Returns
/// human-readable violations (empty = consistent).
std::vector<std::string> check_span_integrity(const std::vector<Span>& spans);

}  // namespace decos::obs
