// The benchmark's own tests: its arithmetic on synthetic inputs, and its
// output checks fed real gateway output with a dropped frame, a corrupted
// frame and a wrong fingerprint. Run: python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "live.hpp"
#include "rt/clock.hpp"
#include "rt/endpoint.hpp"
#include "rt/gateway_runtime.hpp"
#include "rt/ring.hpp"
#include "sim_cluster.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

void test_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  expect(near(percentile(v, 0.5), 50), "nearest-rank p50 of 1..100 is 50");
  expect(near(percentile(v, 0.99), 99), "nearest-rank p99 of 1..100 is 99");
  expect(near(percentile(v, 1.0), 100), "p100 is the maximum");
  expect(near(percentile(v, 0.0), 1), "p0 is the minimum");
  expect(near(median({4, 1, 3, 2}), 2), "median of an even count is the lower middle");
  std::vector<double> empty;
  expect(near(percentile(empty, 0.5), 0), "percentile of nothing is 0");
  expect(near(highest_supported_percentile(1000), 0.99), "1000 samples support p99");
  expect(near(highest_supported_percentile(999), 0.9), "999 samples stop at p90");
  expect(near(highest_supported_percentile(100000), 0.9999), "1e5 samples support p99.99");
  expect(near(highest_supported_percentile(19), 0.0), "19 samples support no percentile");
}

void test_self_times() {
  // rt.poll [0,100] holds two frames; the first frame holds an rt.send.
  const std::vector<Span> spans = {
      {7, 1, 0, Stage::kRtPoll, 0, 100},   {7, 2, 1, Stage::kGwFrame, 10, 40},
      {8, 3, 1, Stage::kGwFrame, 50, 90},  {7, 4, 2, Stage::kRtSend, 20, 30},
      {7, 5, 0, Stage::kGenSend, -50, -40}};
  const std::vector<std::int64_t> self = self_times(spans);
  expect(self[0] == 30, "poll self time excludes both frames (100 - 30 - 40)");
  expect(self[1] == 20, "frame self time excludes its send (30 - 10)");
  expect(self[2] == 40 && self[3] == 10 && self[4] == 10, "leaf spans keep their duration");
  const StageTotals totals = stage_totals(spans, self);
  const auto at = [&](Stage s) { return totals.self_ns[static_cast<int>(s)]; };
  expect(at(Stage::kRtPoll) + at(Stage::kGwFrame) + at(Stage::kRtSend) == 100,
         "stage self times add up to the poll's duration");
  expect(totals.count[static_cast<int>(Stage::kGwFrame)] == 2, "two gw.frame spans counted");

  // Overlapping and overhanging children count once, clipped to the parent.
  const std::vector<Span> overlap = {{1, 1, 0, Stage::kRtPoll, 0, 100},
                                     {1, 2, 1, Stage::kGwFrame, 10, 40},
                                     {1, 3, 1, Stage::kGwFrame, 30, 60},
                                     {1, 4, 1, Stage::kGwFrame, 90, 130}};
  expect(self_times(overlap)[0] == 40, "overlapping children are covered once (100 - 50 - 10)");
}

/// Frames of `count` generator slots pushed through the workload's real
/// gateway (runtime polled inline on a manual clock); returns the egress
/// frames and fills the runtime's and gateway's counters.
struct Passage {
  std::vector<std::vector<std::byte>> egress;
  std::vector<std::uint32_t> sent_per_flow;
  RejectAccounting rejects;
};

Passage pass_through(LiveKind kind, std::uint64_t seed, std::size_t count) {
  using namespace decos;
  LiveGateway live = build_live_gateway(kind);
  live.gateway->trace().set_enabled(false);
  rt::SpscRing a_in{1 << 20}, a_out{1 << 16}, b_in{1 << 16}, b_out{1 << 20};
  rt::RingEndpoint side_a{a_in, a_out};
  rt::RingEndpoint side_b{b_in, b_out};
  rt::ManualClock clock;
  rt::GatewayRuntime runtime{*live.gateway, clock};
  runtime.attach(0, side_a);
  runtime.attach(1, side_b);
  runtime.start();

  FrameCodec codec{kind, live, seed};
  const std::vector<Slot> schedule = make_schedule(kind, seed);
  Passage p;
  p.sent_per_flow.assign(codec.flows(), 0);
  std::vector<std::byte> frame;
  for (std::size_t i = 0; i < count; ++i) {
    const Slot& slot = schedule[i % schedule.size()];
    clock.advance(Duration::microseconds(1));
    codec.encode(slot, p.sent_per_flow[slot.flow], clock.now().ns(), frame);
    a_in.try_push(frame);
    runtime.poll_once(clock.now());
    if (slot.kind == SlotKind::kValid) ++p.sent_per_flow[slot.flow];
    if (slot.kind == SlotKind::kUnknownKey) ++p.rejects.sent_unknown;
    if (slot.kind == SlotKind::kOutOfRange) ++p.rejects.sent_out_of_range;
    b_out.consume(64, [&](std::span<const std::byte> payload) {
      p.egress.emplace_back(payload.begin(), payload.end());
    });
  }
  p.rejects.rt_rx_unknown = runtime.stats().rx_unknown;
  p.rejects.core_blocked_value = live.gateway->stats().blocked_value;
  return p;
}

/// Run the benchmark's egress check over `frames`.
FlowOrderCheck check_egress(LiveKind kind, std::uint64_t seed, const Passage& p,
                            const std::vector<std::vector<std::byte>>& frames) {
  LiveGateway live = build_live_gateway(kind);
  FrameCodec codec{kind, live, seed};
  FlowOrderCheck order{codec.flows()};
  for (const auto& frame : frames) {
    std::size_t flow = 0;
    std::uint32_t seq = 0;
    std::int64_t t = 0;
    if (codec.verify(frame, 0, flow, seq, t))
      order.on_frame(flow, seq);
    else
      order.note_corrupt();
  }
  order.finish(p.sent_per_flow);
  return order;
}

void test_live_checks(LiveKind kind, const std::string& name) {
  const Passage p = pass_through(kind, 5, 3000);
  const FlowOrderCheck intact = check_egress(kind, 5, p, p.egress);
  expect(intact.ok() && intact.received() == p.egress.size() && !p.egress.empty(),
         name + ": intact gateway output passes the egress check");
  expect(p.rejects.ok(), name + ": designed rejects match rx_unknown and blocked_value");
  if (kind == LiveKind::kFaninWide)
    expect(p.rejects.sent_unknown > 0 && p.rejects.sent_out_of_range > 0,
           name + ": both kinds of designed reject were sent");

  std::vector<std::vector<std::byte>> dropped = p.egress;
  dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(dropped.size() / 2));
  expect(!check_egress(kind, 5, p, dropped).ok(), name + ": a dropped frame fails the check");

  std::vector<std::vector<std::byte>> tail_dropped = p.egress;
  tail_dropped.pop_back();
  const FlowOrderCheck tail = check_egress(kind, 5, p, tail_dropped);
  expect(!tail.ok() && tail.lost() == 1, name + ": a lost last frame is counted as lost");

  // A flipped bit in the payload value (offset 3: inside the first field
  // after the 2-byte key) or in the key itself.
  for (const std::size_t offset : {std::size_t{0}, std::size_t{3}}) {
    std::vector<std::vector<std::byte>> corrupted = p.egress;
    corrupted[corrupted.size() / 3][offset] ^= std::byte{0x10};
    expect(!check_egress(kind, 5, p, corrupted).ok(),
           name + ": a frame corrupted at byte " + std::to_string(offset) + " fails the check");
  }

  RejectAccounting wrong = p.rejects;
  wrong.rt_rx_unknown += 1;
  expect(!wrong.ok(), name + ": a miscounted reject fails the accounting");
}

void test_schedule() {
  const std::vector<Slot> a = make_schedule(LiveKind::kFaninWide, 1);
  const std::vector<Slot> b = make_schedule(LiveKind::kFaninWide, 1);
  const std::vector<Slot> c = make_schedule(LiveKind::kFaninWide, 2);
  std::size_t unknown = 0, out_of_range = 0, same_key = 0, differ = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    unknown += a[i].kind == SlotKind::kUnknownKey;
    out_of_range += a[i].kind == SlotKind::kOutOfRange;
    if (i > 0 && a[i].flow == a[i - 1].flow) ++same_key;
    differ += a[i].flow != b[i].flow || a[i].kind != b[i].kind ? 1 : 0;
  }
  std::size_t seed_differ = 0;
  for (std::size_t i = 0; i < a.size(); ++i) seed_differ += a[i].flow != c[i].flow;
  expect(differ == 0, "the schedule is a function of the seed");
  expect(seed_differ > a.size() / 2, "another seed gives another interleaving");
  expect(unknown + out_of_range == a.size() / 32 && unknown == out_of_range,
         "1 in 32 frames is a designed reject, half of each kind");
  expect(same_key * 20 < a.size(), "consecutive frames rarely share a key");
}

void test_fingerprint() {
  const decos::Duration second = decos::Duration::seconds(1);
  const FaultParams e21 = fault_params(kDefaultSimSeed, kSimNodes, second);
  expect(e21.crash_node == 2 && e21.babble_node == 11 && e21.crash_at == second / 3 &&
             e21.babble_at == second / 2,
         "the default seed is E21's fault plan");
  const FaultParams other = fault_params(7, kSimNodes, second);
  expect(other.crash_node < kSimNodes && other.babble_node < kSimNodes &&
             other.crash_for == e21.crash_for,
         "other seeds move the faults, not their size");

  ClusterCounts counts{kCommittedDefault.sim_events, 1, 2, 3, 4, 5};
  expect(!matches_committed(counts), "a wrong fingerprint fails the committed-value check");
  ClusterCounts changed = counts;
  changed.frames_blocked += 1;
  expect(fingerprint(changed) != fingerprint(counts), "every counter feeds the fingerprint");
  counts.sim_events += 1;
  expect(!matches_committed(counts), "a wrong event count fails the committed-value check");

  expect(matches_committed(simulate_counts(kDefaultSimSeed)),
         "a default-seed cluster reproduces the committed values");
  expect(!matches_committed(simulate_counts(7)),
         "a cluster with another fault plan fails the committed-value check");
}

}  // namespace

int main() {
  test_percentiles();
  test_self_times();
  test_schedule();
  test_live_checks(LiveKind::kRelaySmall, "relay_small");
  test_live_checks(LiveKind::kFaninWide, "fanin_wide");
  test_fingerprint();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
