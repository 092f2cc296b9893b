// Streaming windowed telemetry: the live counterpart of the post-hoc
// dump/decotrace pipeline.
//
// A WindowAggregator attaches to a TraceCollector as its SpanSink and
// folds every emitted span into tumbling sim-time windows *as the run
// executes*: per-flow phase latencies (each open trace is an
// obs::TraceFold, the fold post-hoc phase_breakdown runs too, so live
// and post-hoc numbers agree to the nanosecond), deadline-miss counters
// against each consumer's d_acc and against declint's exported static
// bounds, plus per-window metric deltas (counter deltas, gauge window
// high waters, histogram bin deltas) read allocation-free through
// MetricsRegistry::for_each. The stream reader folds windows back into
// the same obs::FlowHealth records phase_breakdown returns.
//
// Windows are emitted as a JSONL delta stream. Every line derived from
// simulated time is byte-deterministic: identical seeded runs produce
// identical streams, and the bench Harness commits per-cell streams in
// submission order so --jobs N never reorders bytes. Host-time
// instruments (handler_ns and friends) are segregated onto separate
// "hostm" lines tagged "deterministic":false, which the determinism
// checks filter out -- the same convention as the dump writer.
//
// The steady-state path (on_span + window close) performs zero heap
// allocations: the open-trace table is a fixed direct-mapped array of
// TraceFolds, per-flow window stats are fixed-capacity run-length
// lists, and serialization appends into reused buffers with
// std::to_chars. This is pinned by hot_path_allocation_test.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/result.hpp"
#include "util/symbol.hpp"
#include "util/time.hpp"

namespace decos::obs {

/// Destination of the JSONL delta stream. write_line receives one
/// complete JSON object without the trailing newline.
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  virtual void write_line(std::string_view line) = 0;
};

/// Sink appending "line\n" to a std::ostream (file or pipe).
class OstreamTelemetrySink : public TelemetrySink {
 public:
  explicit OstreamTelemetrySink(std::ostream& out) : out_{&out} {}
  void write_line(std::string_view line) override;

 private:
  std::ostream* out_;
};

/// Which clock drives the tumbling windows. Sim-time windows are
/// byte-deterministic (the bench/CI surface); host-time windows follow
/// the wall clock of the run itself (the live-runtime surface) and are
/// tagged "deterministic":false line by line so determinism checks skip
/// them. Flow latencies are computed from span sim timestamps either
/// way -- the timeline only decides window membership.
enum class TelemetryTimeline { kSim, kHost };

struct TelemetryConfig {
  /// Tumbling window length (simulated or host nanoseconds, per
  /// `timeline`).
  Duration window = Duration::milliseconds(100);
  TelemetryTimeline timeline = TelemetryTimeline::kSim;
  /// Capacity of the direct-mapped open-trace table. A colliding new
  /// root evicts (finalizes) the previous occupant; sized generously
  /// relative to the number of simultaneously in-flight traces.
  std::size_t max_open_traces = 1024;
};

/// Streaming per-flow, per-window aggregator. See file comment.
class WindowAggregator : public SpanSink {
 public:
  /// Distinct latency values tracked exactly per (flow, phase, window);
  /// further distinct values only widen min/max/sum and count `trunc`.
  static constexpr std::size_t kWindowValueCap = 32;

  /// `metrics` may be null (span-only aggregation); `collector` may be
  /// null (metrics-only windows). Neither is owned.
  WindowAggregator(MetricsRegistry* metrics, const TraceCollector* collector,
                   TelemetryConfig config);
  ~WindowAggregator() override;

  WindowAggregator(const WindowAggregator&) = delete;
  WindowAggregator& operator=(const WindowAggregator&) = delete;

  /// Attach the output stream (nullptr detaches; aggregation continues
  /// and cumulative totals stay queryable).
  void set_sink(TelemetrySink* sink) { sink_ = sink; }

  /// Emit the stream header ("tmeta" line) carrying the cell label and
  /// window length. Call once, after set_sink, before traffic.
  void begin_stream(std::string_view label);

  /// Register the d_acc deadline for a flow ("msgA" or "msgA->msgB",
  /// as obs::flow_key spells it). Flows appearing later match by exact
  /// key first, then by unique root-message fallback.
  void set_deadline(std::string_view flow_key, Duration d_acc);
  /// Register a static end-to-end bound (declint export) for a flow.
  void set_bound(std::string_view flow_key, std::int64_t bound_ns);

  /// SpanSink: fold one span (called from TraceCollector::emit).
  void on_span(const Span& span) override;

  /// Finalize still-open traces (ascending trace id), close and emit
  /// the final (possibly partial) window. Idempotent; called by the
  /// destructor if a sink is still attached.
  void flush();

  /// Cumulative (whole-run) per-flow SLO accounting, for in-process
  /// assertions and exposition snapshots. Sorted by flow key.
  struct FlowTotals {
    std::string flow;
    std::uint64_t traces = 0;
    std::int64_t deadline_ns = -1;  // -1 = no deadline registered
    std::int64_t bound_ns = -1;     // -1 = no static bound registered
    std::uint64_t deadline_miss = 0;
    std::uint64_t bound_miss = 0;
  };
  std::vector<FlowTotals> totals() const;

  std::uint64_t windows_emitted() const { return windows_emitted_; }
  std::uint64_t traces_evicted() const { return evicted_total_; }
  std::uint64_t late_finalized() const { return late_total_; }

 private:
  /// Exact fixed-capacity latency stats for one (flow, phase, window):
  /// sorted run-length pairs (value, count). Windows are short and sim
  /// latencies heavily repeated, so 32 distinct values per window is
  /// plenty; overflow widens min/max/sum and bumps trunc.
  struct PhaseWindow {
    std::uint64_t n = 0;
    std::uint64_t trunc = 0;
    std::int64_t min = 0;
    std::int64_t max = 0;
    std::int64_t sum = 0;
    std::uint32_t distinct = 0;
    std::array<std::int64_t, kWindowValueCap> value{};
    std::array<std::uint32_t, kWindowValueCap> count{};

    void add(std::int64_t v);
    void reset() { *this = PhaseWindow{}; }
  };

  struct FlowState {
    std::string key;                // "msgA" or "msgA->msgB"
    std::int64_t deadline_ns = -1;  // tightest consumer d_acc
    std::int64_t bound_ns = -1;     // declint static bound
    // Cumulative (whole run):
    std::uint64_t traces = 0;
    std::uint64_t deadline_miss = 0;
    std::uint64_t bound_miss = 0;
    // Current window:
    bool touched = false;
    std::uint64_t win_traces = 0;
    std::uint64_t win_deadline_miss = 0;
    std::uint64_t win_bound_miss = 0;
    std::array<PhaseWindow, std::size(kBreakdownPhases)> phase{};  // kBreakdownPhases order
  };

  /// One in-flight trace in the direct-mapped table (trace_id == 0 =
  /// free slot).
  struct OpenTrace {
    std::uint64_t trace_id = 0;
    TraceFold fold;
  };

  /// SLO registration waiting for its flow to appear.
  struct SloEntry {
    std::string key;
    std::string root;  // key up to "->"
    std::int64_t deadline_ns = -1;
    std::int64_t bound_ns = -1;
  };

  /// Previous-window metric values for delta folding.
  struct MetricPrev {
    std::uint64_t counter = 0;
    std::uint64_t updates = 0;
    std::int64_t gauge_value = 0;
    std::uint64_t hist_count = 0;
    std::int64_t hist_sum = 0;
    std::array<std::uint64_t, Histogram::kBins> bins{};
  };

  void advance_to(Instant end);
  void close_window();
  FlowState& flow_for(Symbol root, Symbol last);
  SloEntry& upsert_slo(std::string_view key);
  void apply_slo(FlowState& flow);
  void finalize(OpenTrace& t);
  void fold_metrics();
  void append_flow(const FlowState& flow);

  MetricsRegistry* metrics_;
  const TraceCollector* collector_;
  TelemetryConfig config_;
  TelemetrySink* sink_ = nullptr;
  std::int64_t window_ns_;

  std::vector<OpenTrace> table_;
  std::vector<std::size_t> flush_order_;  // scratch, reserved up front

  std::vector<FlowState> flows_;  // creation order (deterministic)
  std::unordered_map<std::uint64_t, std::size_t> flow_index_;  // (root<<32|last) -> index
  std::vector<SloEntry> slo_;

  Instant watermark_{};
  std::int64_t current_window_ = 0;
  std::int64_t host_epoch_ns_ = 0;  // host timeline: steady-clock origin
  bool started_ = false;
  bool flushed_ = false;

  std::uint64_t windows_emitted_ = 0;
  std::uint64_t evicted_total_ = 0;
  std::uint64_t late_total_ = 0;
  std::uint64_t win_evicted_ = 0;
  std::uint64_t win_late_ = 0;
  std::uint64_t prev_spans_dropped_ = 0;
  std::size_t open_traces_ = 0;

  std::vector<MetricPrev> prev_;  // grows only when instruments register
  std::string line_;              // reused serialization buffers
  std::string host_line_;
};

// ---------------------------------------------------------------------
// Stream reader (decomon, tests): parse a JSONL delta stream back into
// windows and accumulate them into whole-run per-flow health.

struct TelemetryPhase {
  std::uint64_t n = 0;
  std::uint64_t trunc = 0;
  std::int64_t min_ns = 0;
  std::int64_t max_ns = 0;
  std::int64_t sum_ns = 0;
  std::vector<std::pair<std::int64_t, std::uint64_t>> values;  // sorted (value, count)
};

struct TelemetryFlow {
  std::string flow;
  std::uint64_t traces = 0;
  std::int64_t deadline_ns = -1;
  std::int64_t bound_ns = -1;
  std::uint64_t deadline_miss = 0;
  std::uint64_t bound_miss = 0;
  std::map<std::string, TelemetryPhase> phases;  // key: kBreakdownPhases entry
};

struct TelemetryMetric {
  std::string name;
  InstrumentKind kind = InstrumentKind::kCounter;
  bool deterministic = true;
  std::uint32_t sample_period = 1;
  std::int64_t delta = 0;  // counter
  std::int64_t value = 0;  // gauge
  std::int64_t high = 0;   // gauge window high water
  std::uint64_t n = 0;     // histogram delta count
  std::int64_t sum = 0;
  std::int64_t p50 = 0;
  std::int64_t p99 = 0;
};

struct TelemetryWindow {
  std::uint64_t seq = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<TelemetryFlow> flows;
  std::vector<TelemetryMetric> metrics;
  std::uint64_t spans_dropped = 0;
  std::uint64_t evicted = 0;
  std::uint64_t late = 0;
  std::uint64_t open = 0;
};

struct TelemetryStream {
  std::string label;
  std::int64_t window_ns = 0;
  std::vector<TelemetryWindow> windows;
};

/// Parse a telemetry JSONL stream (any number of concatenated cell
/// streams, each headed by a tmeta line). Unknown line types are
/// skipped so the format can grow.
Result<std::vector<TelemetryStream>> load_telemetry(std::istream& in);

/// Merge all windows of all streams into per-flow health records,
/// sorted by flow key. Windows from different cells with the same flow
/// key merge (decomon monitors one cell's stream in practice).
std::vector<FlowHealth> flow_health(const std::vector<TelemetryStream>& streams);

/// Fold per-window metric deltas back into a cumulative snapshot:
/// counters sum deltas, gauges keep the last value and the max window
/// high water, histograms sum counts/sums and keep the percentiles of
/// the largest window (binning loses exact merge).
MetricsSnapshot accumulate_metrics(const std::vector<TelemetryStream>& streams);

/// Load declint's exported flow bounds ({"cluster":{"flows":[{"key","bound_ns"},...]}}),
/// the same file decotrace --check-bounds consumes.
Result<std::vector<std::pair<std::string, std::int64_t>>> load_flow_bounds(std::istream& in);

}  // namespace decos::obs
