// Streaming windowed telemetry (obs/telemetry): the live aggregator and
// post-hoc phase_breakdown must both reproduce the landmark-scan oracle
// (tests/oracle/landmark_scan.hpp) exactly, drop traces whose root is
// missing, place
// samples in the right tumbling windows (including empty windows and
// traces straddling window boundaries), count deadline/bound misses
// with the temporal-accuracy semantics, and emit a byte-deterministic
// stream that load_telemetry folds back losslessly.
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "../oracle/landmark_scan.hpp"
#include "obs/analysis.hpp"
#include "util/rng.hpp"

namespace decos::obs {
namespace {

using namespace decos::literals;

Instant at(std::int64_t ns) { return Instant::from_ns(ns); }

/// Emit one E6-shaped gateway trace: send -> bus -> deliver into the
/// gateway port -> dissect -> repo wait -> construct -> bus -> deliver.
/// All offsets are relative to `t0`; `repo_ns` varies the dominant
/// phase so percentiles see distinct values.
void emit_gateway_trace(TraceCollector& collector, Instant t0, std::int64_t repo_ns) {
  const std::uint64_t trace = collector.new_trace();
  const std::uint64_t root =
      collector.emit(trace, 0, Phase::kSend, "node0", "msgA", t0, t0, 1);
  const std::uint64_t bus =
      collector.emit(trace, root, Phase::kBus, "bus", "slot 0", t0, t0 + 2_ms, 32);
  // Delivery into the gateway's own input port: precedes the construct,
  // so it must be held pending, then superseded by the real delivery.
  const std::uint64_t gw_in =
      collector.emit(trace, bus, Phase::kDeliver, "vn:a", "msgA", t0 + 2_ms, t0 + 2_ms);
  const std::uint64_t dis = collector.emit(trace, gw_in, Phase::kDissect, "gw", "msgA",
                                           t0 + 2_ms, t0 + 2_ms + 100_us);
  const Instant repo_end = t0 + 2_ms + 100_us + Duration::nanoseconds(repo_ns);
  const std::uint64_t repo = collector.emit(trace, dis, Phase::kRepoWait, "gw", "image",
                                            t0 + 2_ms + 100_us, repo_end);
  const std::uint64_t con =
      collector.emit(trace, repo, Phase::kConstruct, "gw", "msgB", repo_end, repo_end + 50_us);
  const std::uint64_t bus2 = collector.emit(trace, con, Phase::kBus, "bus", "slot 1",
                                            repo_end + 50_us, repo_end + 1_ms);
  collector.emit(trace, bus2, Phase::kDeliver, "vn:b", "msgB", repo_end + 1_ms, repo_end + 1_ms);
}

/// Direct (gateway-less) trace: send -> bus -> deliver, then a stray
/// dissect *after* the delivery. The post-hoc scan stops at the first
/// qualifying deliver, so that dissect must not produce a phase sample.
void emit_direct_trace(TraceCollector& collector, Instant t0, std::int64_t bus_ns) {
  const std::uint64_t trace = collector.new_trace();
  const std::uint64_t root =
      collector.emit(trace, 0, Phase::kSend, "node1", "msgC", t0, t0);
  const Instant bus_end = t0 + Duration::nanoseconds(bus_ns);
  const std::uint64_t bus =
      collector.emit(trace, root, Phase::kBus, "bus", "slot 2", t0, bus_end);
  collector.emit(trace, bus, Phase::kDeliver, "vn:c", "msgC", bus_end, bus_end + 500_us);
  collector.emit(trace, bus, Phase::kDissect, "gw", "msgC", bus_end + 1_ms, bus_end + 1_ms + 10_us);
}

std::vector<Span> as_vector(const TraceCollector& collector) {
  return std::vector<Span>{collector.spans().begin(), collector.spans().end()};
}

std::vector<TelemetryStream> parse(const std::string& text) {
  std::istringstream in{text};
  Result<std::vector<TelemetryStream>> streams = load_telemetry(in);
  EXPECT_TRUE(streams.ok()) << streams.error().message;
  return streams.ok() ? streams.value() : std::vector<TelemetryStream>{};
}

const FlowHealth* find_flow(const std::vector<FlowHealth>& flows, std::string_view key) {
  for (const FlowHealth& f : flows)
    if (f.flow == key) return &f;
  return nullptr;
}

/// Replay a span stream (span-id order, as a SpanSink sees it) through
/// a fresh aggregator and fold its telemetry stream back into flows.
std::vector<FlowHealth> stream_flows(const std::vector<Span>& spans, TelemetryConfig config) {
  std::ostringstream out;
  OstreamTelemetrySink sink{out};
  WindowAggregator aggregator{nullptr, nullptr, config};
  aggregator.set_sink(&sink);
  aggregator.begin_stream("replay");
  for (const Span& s : spans) aggregator.on_span(s);
  aggregator.flush();
  EXPECT_EQ(aggregator.traces_evicted(), 0u);
  return flow_health(parse(out.str()));
}

/// Every flow, phase, count, extreme, mean and percentile of `flows`
/// equals the landmark-scan oracle's.
void expect_matches_oracle(const oracle::Breakdown& expected, const std::vector<FlowHealth>& flows,
                           std::string_view reader) {
  ASSERT_EQ(flows.size(), expected.size()) << reader;
  for (const auto& [key, stats] : expected) {
    const FlowHealth* flow = find_flow(flows, key);
    ASSERT_NE(flow, nullptr) << reader << " " << key;
    EXPECT_EQ(flow->traces, stats.traces) << reader << " " << key;
    for (const char* phase : kBreakdownPhases) {
      const std::string where = std::string{reader} + " " + key + "/" + phase;
      const auto post = stats.phases.find(phase);
      const auto it = flow->phases.find(phase);
      if (post == stats.phases.end() || post->second.empty()) {
        EXPECT_TRUE(it == flow->phases.end() || it->second.n == 0) << where;
        continue;
      }
      ASSERT_NE(it, flow->phases.end()) << where;
      const oracle::LatencySet& set = post->second;
      const FlowHealth::PhaseAgg& agg = it->second;
      EXPECT_TRUE(agg.exact()) << where;
      EXPECT_EQ(agg.n, set.count()) << where;
      EXPECT_EQ(agg.min_ns, set.min()) << where;
      EXPECT_EQ(agg.max_ns, set.max()) << where;
      EXPECT_DOUBLE_EQ(agg.mean(), set.mean()) << where;
      for (const double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
        EXPECT_EQ(agg.percentile(p), set.percentile(p)) << where << " p=" << p;
    }
  }
}

/// One generated trace: its spans in causal order, each naming its
/// parent by index into the script (-1 = root).
struct ScriptSpan {
  Phase phase;
  const char* name;
  int parent;
  std::int64_t end_ns;  // relative to the trace's root
  std::int64_t duration_ns;
};

/// Seeded trace shapes. Gateway traces run 1-3 TT rounds (bus, a
/// delivery into the gateway's own input port, dissect, repo waits)
/// with the construction in any round or none, then the consumer
/// delivery and further re-send rounds. Direct traces deliver without
/// a gateway and may carry stray landmarks after the delivery. A fifth
/// of the traces are cut short (no delivery); "soup" traces are random
/// phase sequences. Times advance in 0/1 ms steps so every flow keeps
/// few distinct latencies (one telemetry window stays exact).
std::vector<ScriptSpan> generate_trace(Rng& rng) {
  std::vector<ScriptSpan> script;
  std::int64_t now = 0;
  const auto add = [&](Phase phase, const char* name) {
    now += rng.uniform_int(0, 1) * 1'000'000;
    const int parent = script.empty() ? -1 : static_cast<int>(script.size()) - 1;
    script.push_back(ScriptSpan{phase, name, parent, now, rng.uniform_int(0, 2) * 1'000'000});
  };
  switch (rng.uniform_int(0, 2)) {
    case 0: {  // gateway: msgA -> msgB
      add(Phase::kSend, "msgA");
      const int rounds = static_cast<int>(rng.uniform_int(1, 3));
      const int construct_round = static_cast<int>(rng.uniform_int(1, rounds + 1));  // > rounds: none
      for (int round = 1; round <= rounds; ++round) {
        add(Phase::kBus, "slot 0");
        if (rng.uniform_int(0, 3) != 0) add(Phase::kDeliver, "msgA");  // gateway input port
        if (rng.uniform_int(0, 4) != 0) add(Phase::kDissect, "msgA");
        for (std::int64_t r = rng.uniform_int(0, 2); r > 0; --r) add(Phase::kRepoWait, "image");
        if (round < construct_round) continue;
        if (round == construct_round) add(Phase::kConstruct, "msgB");
        add(Phase::kBus, "slot 1");
        add(Phase::kDeliver, "msgB");
      }
      break;
    }
    case 1: {  // gateway-less: msgC
      add(Phase::kSend, "msgC");
      for (std::int64_t round = rng.uniform_int(1, 3); round > 0; --round) {
        add(Phase::kBus, "slot 2");
        add(Phase::kDeliver, "msgC");
        if (rng.uniform_int(0, 2) == 0) add(Phase::kDissect, "msgC");
        if (rng.uniform_int(0, 3) == 0) add(Phase::kRepoWait, "image");
      }
      break;
    }
    default: {  // soup: any phase order, names from a separate family
      static constexpr const char* kNames[] = {"soupX", "soupY", "soupZ"};
      static constexpr Phase kPhases[] = {Phase::kBus, Phase::kDissect, Phase::kRepoWait,
                                          Phase::kConstruct, Phase::kDeliver};
      add(Phase::kSend, kNames[rng.uniform_int(0, 1)]);
      for (std::int64_t n = rng.uniform_int(0, 9); n > 0; --n)
        add(kPhases[rng.uniform_int(0, 4)], kNames[rng.uniform_int(0, 2)]);
      break;
    }
  }
  if (rng.uniform_int(0, 4) == 0)
    script.resize(static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(script.size()))));
  return script;
}

TEST(WindowAggregator, MatchesPhaseBreakdownExactly) {
  constexpr int kTraces = 400;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng{seed};
    std::vector<std::vector<ScriptSpan>> scripts;
    std::vector<std::uint64_t> trace_ids;
    std::vector<std::int64_t> origin;
    TraceCollector collector;
    for (int i = 0; i < kTraces; ++i) {
      scripts.push_back(generate_trace(rng));
      trace_ids.push_back(collector.new_trace());
      origin.push_back(rng.uniform_int(0, 1000) * 1'000'000);
    }
    // Interleave: every step emits the next span of a random unfinished
    // trace, so traces overlap arbitrarily in the span stream.
    std::vector<std::size_t> cursor(kTraces, 0);
    std::vector<std::vector<std::uint64_t>> span_ids(kTraces);
    std::vector<std::size_t> open(kTraces);
    for (std::size_t i = 0; i < open.size(); ++i) open[i] = i;
    while (!open.empty()) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(open.size()) - 1));
      const std::size_t t = open[pick];
      const ScriptSpan& step = scripts[t][cursor[t]];
      const Instant end = at(origin[t] + step.end_ns);
      const Instant start = step.parent < 0 ? end : at(origin[t] + step.end_ns - step.duration_ns);
      const std::uint64_t parent = step.parent < 0 ? 0 : span_ids[t][step.parent];
      span_ids[t].push_back(
          collector.emit(trace_ids[t], parent, step.phase, "track", step.name, start, end));
      if (++cursor[t] == scripts[t].size()) {
        open[pick] = open.back();
        open.pop_back();
      }
    }

    const std::vector<Span> spans = as_vector(collector);
    const oracle::Breakdown expected = oracle::landmark_scan(spans);
    // Every shape shows up: gateway, held gateway-port delivery, direct.
    for (const char* key : {"msgA->msgB", "msgA", "msgC"}) ASSERT_EQ(expected.count(key), 1u) << key;
    expect_matches_oracle(expected, phase_breakdown(spans), "phase_breakdown");
    // One window spanning the whole run and a table slot per trace: no
    // eviction, no value-list truncation, so the stream is exact too.
    TelemetryConfig config;
    config.window = Duration::seconds(10);
    config.max_open_traces = kTraces + 1;
    expect_matches_oracle(expected, stream_flows(spans, config), "WindowAggregator");
  }
}

TEST(WindowAggregator, TraceWithoutRootYieldsNoFlow) {
  // A bounded ring evicts the oldest spans: the gateway trace loses its
  // root and first bus span, the direct trace behind it survives whole.
  TraceCollector collector;
  collector.set_capacity(10);
  emit_gateway_trace(collector, at(0), 300'000);            // 8 spans
  emit_direct_trace(collector, at(20'000'000), 1'000'000);  // 4 spans
  ASSERT_EQ(collector.dropped(), 2u);
  const std::vector<Span> spans = as_vector(collector);
  ASSERT_NE(spans.front().parent_id, 0u);  // the orphaned tail leads

  TelemetryConfig config;
  config.window = Duration::seconds(10);
  for (const std::vector<FlowHealth>& flows : {phase_breakdown(spans), stream_flows(spans, config)}) {
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_EQ(flows[0].flow, "msgC");
    EXPECT_EQ(flows[0].traces, 1u);
  }
}

TEST(WindowAggregator, LandmarkAfterUnconstructedDeliverDoesNotCount) {
  TraceCollector collector;
  std::ostringstream out;
  OstreamTelemetrySink sink{out};
  WindowAggregator aggregator{nullptr, &collector, TelemetryConfig{}};
  aggregator.set_sink(&sink);
  aggregator.begin_stream("rollback");
  collector.set_sink(&aggregator);

  emit_direct_trace(collector, at(0), 1'000'000);
  aggregator.flush();

  const std::vector<FlowHealth> flows = flow_health(parse(out.str()));
  const FlowHealth* flow = find_flow(flows, "msgC");
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->traces, 1u);
  // The dissect span arrived after the (terminal) delivery: no dissect
  // sample, exactly like the post-hoc scan that breaks at the deliver.
  EXPECT_EQ(flow->phases.count("dissect"), 0u);
  ASSERT_EQ(flow->phases.count("total"), 1u);
  EXPECT_EQ(flow->phases.at("total").max_ns, 1'500'000);  // bus 1ms + 500us delivery
}

TEST(WindowAggregator, EmptyAndStraddlingWindows) {
  TraceCollector collector;
  std::ostringstream out;
  OstreamTelemetrySink sink{out};
  TelemetryConfig config;
  config.window = 1_ms;
  WindowAggregator aggregator{nullptr, &collector, config};
  aggregator.set_sink(&sink);
  aggregator.begin_stream("windows");
  collector.set_sink(&aggregator);

  // Trace A lives entirely in window 0. Trace B's root starts in window
  // 0 but its post-construct delivery ends at 2.5 ms -- the whole trace
  // belongs to window 2, and window 1 must still be emitted, empty.
  // (A trace with a construct finalizes at the next deliver; without
  // one the deliver stays pending until flush.)
  {
    const std::uint64_t trace = collector.new_trace();
    const std::uint64_t root = collector.emit(trace, 0, Phase::kSend, "n", "msgA", at(0), at(0));
    const std::uint64_t con =
        collector.emit(trace, root, Phase::kConstruct, "gw", "msgB", at(0), at(100'000));
    collector.emit(trace, con, Phase::kDeliver, "vn", "msgB", at(100'000), at(400'000));
  }
  {
    const std::uint64_t trace = collector.new_trace();
    const std::uint64_t root =
        collector.emit(trace, 0, Phase::kSend, "n", "msgA", at(800'000), at(800'000));
    const std::uint64_t con =
        collector.emit(trace, root, Phase::kConstruct, "gw", "msgB", at(800'000), at(900'000));
    collector.emit(trace, con, Phase::kDeliver, "vn", "msgB", at(900'000), at(2'500'000));
  }
  aggregator.flush();

  const std::vector<TelemetryStream> streams = parse(out.str());
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0].window_ns, 1'000'000);
  ASSERT_EQ(streams[0].windows.size(), 3u);

  const TelemetryWindow& w0 = streams[0].windows[0];
  EXPECT_EQ(w0.seq, 0u);
  EXPECT_EQ(w0.start_ns, 0);
  EXPECT_EQ(w0.end_ns, 1'000'000);
  ASSERT_EQ(w0.flows.size(), 1u);  // trace A only; B is still open
  EXPECT_EQ(w0.flows[0].traces, 1u);
  EXPECT_EQ(w0.open, 1u);

  const TelemetryWindow& w1 = streams[0].windows[1];
  EXPECT_EQ(w1.seq, 1u);
  EXPECT_TRUE(w1.flows.empty());  // nothing finalized between 1 ms and 2 ms

  const TelemetryWindow& w2 = streams[0].windows[2];
  EXPECT_EQ(w2.seq, 2u);
  ASSERT_EQ(w2.flows.size(), 1u);  // trace B lands where it was delivered
  EXPECT_EQ(w2.flows[0].traces, 1u);
  EXPECT_EQ(w2.flows[0].phases.at("total").max_ns, 1'700'000);
  EXPECT_EQ(w2.late, 0u);  // delivered inside the current window
}

TEST(WindowAggregator, DeadlineUsesTemporalAccuracyAndBoundIsStrict) {
  TraceCollector collector;
  std::ostringstream out;
  OstreamTelemetrySink sink{out};
  WindowAggregator aggregator{nullptr, &collector, TelemetryConfig{}};
  aggregator.set_sink(&sink);
  aggregator.begin_stream("slo");
  // Registered before the flow exists: must apply on first appearance.
  aggregator.set_deadline("msgC", Duration::nanoseconds(1'500'000));
  aggregator.set_bound("msgC", 1'500'000);
  collector.set_sink(&aggregator);

  emit_direct_trace(collector, at(0), 1'000'000);         // total exactly 1.5 ms
  emit_direct_trace(collector, at(10'000'000), 900'000);  // total 1.4 ms
  aggregator.flush();

  const std::vector<WindowAggregator::FlowTotals> totals = aggregator.totals();
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_EQ(totals[0].flow, "msgC");
  EXPECT_EQ(totals[0].traces, 2u);
  // Temporal accuracy holds only while t < t_update + d_acc: a latency
  // equal to the deadline is already a miss...
  EXPECT_EQ(totals[0].deadline_miss, 1u);
  // ...but declint's bound check is strict (observed > bound), so the
  // same 1.5 ms total does not breach a 1.5 ms static bound.
  EXPECT_EQ(totals[0].bound_miss, 0u);

  // The stream round-trips the same accounting.
  const std::vector<FlowHealth> flows = flow_health(parse(out.str()));
  const FlowHealth* flow = find_flow(flows, "msgC");
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->deadline_ns, 1'500'000);
  EXPECT_EQ(flow->deadline_miss, 1u);
  EXPECT_EQ(flow->bound_ns, 1'500'000);
  EXPECT_EQ(flow->bound_miss, 0u);
}

TEST(WindowAggregator, CollidingRootEvictsAndFlushFinalizesLate) {
  TraceCollector collector;
  std::ostringstream out;
  OstreamTelemetrySink sink{out};
  TelemetryConfig config;
  config.window = 1_ms;
  config.max_open_traces = 4;
  WindowAggregator aggregator{nullptr, &collector, config};
  aggregator.set_sink(&sink);
  aggregator.begin_stream("evict");
  collector.set_sink(&aggregator);

  // Trace 1 and trace 5 map to the same slot (id % 4). Trace 1 never
  // delivers; the colliding root finalizes it with its last span as
  // terminal. Trace 5 stays open until flush, in a later window than
  // its last span -- the late counter must record that.
  const std::uint64_t t1 = collector.new_trace();
  ASSERT_EQ(t1, 1u);
  const std::uint64_t r1 = collector.emit(t1, 0, Phase::kSend, "n", "msgA", at(0), at(0));
  collector.emit(t1, r1, Phase::kBus, "bus", "s", at(0), at(300'000));
  std::uint64_t t5 = collector.new_trace();
  while (t5 % config.max_open_traces != t1 % config.max_open_traces) t5 = collector.new_trace();
  const std::uint64_t r5 = collector.emit(t5, 0, Phase::kSend, "n", "msgA", at(400'000),
                                          at(400'000));
  collector.emit(t5, r5, Phase::kBus, "bus", "s", at(400'000), at(500'000));
  // Push the watermark two windows past trace 5's spans before flushing.
  collector.emit(0, 0, Phase::kSend, "n", "tick", at(2'600'000), at(2'600'000));
  aggregator.flush();

  EXPECT_EQ(aggregator.traces_evicted(), 1u);
  EXPECT_EQ(aggregator.late_finalized(), 1u);

  const std::vector<TelemetryStream> streams = parse(out.str());
  ASSERT_EQ(streams.size(), 1u);
  std::uint64_t evicted = 0;
  std::uint64_t late = 0;
  std::uint64_t traces = 0;
  for (const TelemetryWindow& w : streams[0].windows) {
    evicted += w.evicted;
    late += w.late;
    for (const TelemetryFlow& f : w.flows) traces += f.traces;
  }
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(late, 1u);
  EXPECT_EQ(traces, 2u);
}

TEST(WindowAggregator, StreamBytesAreDeterministic) {
  const auto run = [] {
    TraceCollector collector;
    std::ostringstream out;
    OstreamTelemetrySink sink{out};
    WindowAggregator aggregator{nullptr, &collector, TelemetryConfig{}};
    aggregator.set_sink(&sink);
    aggregator.begin_stream("determinism");
    collector.set_sink(&aggregator);
    for (int i = 0; i < 25; ++i)
      emit_gateway_trace(collector, at(i * 11'000'000), 250'000 + 173'000 * (i % 7));
    aggregator.flush();
    return out.str();
  };
  const std::string first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run());
}

TEST(WindowAggregator, FoldsMetricDeltasPerWindow) {
  if (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  MetricsRegistry registry;
  Counter& frames = registry.counter("tt.frames_sent");
  Gauge& depth = registry.gauge("vn.depth");
  Histogram& handler = registry.histogram("sim.handler_ns", Determinism::kDeterministic, 16);

  TraceCollector collector;
  std::ostringstream out;
  OstreamTelemetrySink sink{out};
  TelemetryConfig config;
  config.window = 1_ms;
  WindowAggregator aggregator{&registry, &collector, config};
  aggregator.set_sink(&sink);
  aggregator.begin_stream("metrics");
  collector.set_sink(&aggregator);

  frames.add(3);
  depth.set(7);
  handler.observe(120);
  collector.emit(0, 0, Phase::kSend, "n", "tick", at(1'100'000), at(1'100'000));  // close w0
  frames.add(2);
  depth.set(2);
  collector.emit(0, 0, Phase::kSend, "n", "tick", at(2'100'000), at(2'100'000));  // close w1
  aggregator.flush();

  const std::vector<TelemetryStream> streams = parse(out.str());
  ASSERT_EQ(streams.size(), 1u);
  ASSERT_GE(streams[0].windows.size(), 2u);

  const auto metric = [](const TelemetryWindow& w, std::string_view name) -> const TelemetryMetric* {
    for (const TelemetryMetric& m : w.metrics)
      if (m.name == name) return &m;
    return nullptr;
  };
  const TelemetryMetric* f0 = metric(streams[0].windows[0], "tt.frames_sent");
  ASSERT_NE(f0, nullptr);
  EXPECT_EQ(f0->delta, 3);
  const TelemetryMetric* f1 = metric(streams[0].windows[1], "tt.frames_sent");
  ASSERT_NE(f1, nullptr);
  EXPECT_EQ(f1->delta, 2);
  const TelemetryMetric* d1 = metric(streams[0].windows[1], "vn.depth");
  ASSERT_NE(d1, nullptr);
  EXPECT_EQ(d1->value, 2);
  const TelemetryMetric* h0 = metric(streams[0].windows[0], "sim.handler_ns");
  ASSERT_NE(h0, nullptr);
  EXPECT_EQ(h0->n, 1u);
  EXPECT_EQ(h0->sample_period, 16u);  // sampling factor rides the stream

  // Folding the deltas back reproduces the cumulative picture.
  const MetricsSnapshot folded = accumulate_metrics(streams);
  const MetricValue* frames_total = folded.find("tt.frames_sent");
  ASSERT_NE(frames_total, nullptr);
  EXPECT_EQ(frames_total->value, 5);
  const MetricValue* depth_total = folded.find("vn.depth");
  ASSERT_NE(depth_total, nullptr);
  EXPECT_EQ(depth_total->value, 2);
  EXPECT_EQ(depth_total->high_water, 7);
  const MetricValue* handler_total = folded.find("sim.handler_ns");
  ASSERT_NE(handler_total, nullptr);
  EXPECT_EQ(handler_total->count, 1u);
  EXPECT_EQ(handler_total->sample_period, 16u);
}

TEST(LoadFlowBounds, ReadsDeclintExport) {
  std::istringstream in{R"({"cluster":{"flows":[)"
                        R"({"key":"msgA->msgB","bound_ns":40000000},)"
                        R"({"key":"msgC","bound_ns":1500000}]}})"};
  Result<std::vector<std::pair<std::string, std::int64_t>>> bounds = load_flow_bounds(in);
  ASSERT_TRUE(bounds.ok()) << bounds.error().message;
  ASSERT_EQ(bounds.value().size(), 2u);
  EXPECT_EQ(bounds.value()[0].first, "msgA->msgB");
  EXPECT_EQ(bounds.value()[0].second, 40'000'000);
  EXPECT_EQ(bounds.value()[1].first, "msgC");
  EXPECT_EQ(bounds.value()[1].second, 1'500'000);
}

}  // namespace
}  // namespace decos::obs
