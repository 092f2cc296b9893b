#include "sim_cluster.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>

#include "core/gateway_job.hpp"
#include "core/virtual_gateway.hpp"
#include "core/wiring.hpp"
#include "fault/plan.hpp"
#include "live.hpp"
#include "obs/metrics.hpp"
#include "platform/cluster.hpp"
#include "vn/et_vn.hpp"
#include "vn/tt_vn.hpp"

namespace perfbench {

using namespace decos;

namespace {

constexpr std::size_t kIslandNodes = 8;
constexpr std::size_t kPairsPerIsland = 8;

// E21's port shape (its message shape is state_message).
spec::PortSpec port(const std::string& message, spec::DataDirection direction,
                    spec::ControlParadigm paradigm, Duration period,
                    Duration tmin = Duration::zero(), Duration tmax = Duration::max()) {
  spec::PortSpec ps;
  ps.message = message;
  ps.direction = direction;
  ps.semantics = spec::InfoSemantics::kState;
  ps.paradigm = paradigm;
  ps.period = period;
  ps.min_interarrival = tmin;
  ps.max_interarrival = tmax;
  ps.queue_capacity = 16;
  return ps;
}

/// Bins of several host-time histograms merged (one per gateway).
struct MergedHistogram {
  std::uint64_t bins[obs::Histogram::kBins] = {};
  std::uint64_t count = 0;
  std::int64_t lo = std::numeric_limits<std::int64_t>::max();
  std::int64_t hi = 0;

  void add(const obs::Histogram& h) {
    if (h.count() == 0) return;
    std::uint64_t b[obs::Histogram::kBins];
    h.snapshot_bins(b);
    for (int i = 0; i < obs::Histogram::kBins; ++i) bins[i] += b[i];
    count += h.count();
    lo = std::min(lo, h.min());
    hi = std::max(hi, h.max());
  }
  double p50() const {
    if (count == 0) return 0.0;
    return static_cast<double>(obs::Histogram::percentile_of(bins, count, lo, hi, 0.5));
  }
};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

struct ClusterRun {
  ClusterCounts counts;
  std::uint64_t fingerprint = 0;
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> round_us;  // wall time of each simulated TDMA round
  // Per-layer readouts.
  double handler_p50_ns = 0.0;
  double handler_mean_ns = 0.0;
  double dissect_p50_ns = 0.0;
  double construct_p50_ns = 0.0;
  std::uint64_t messages_in = 0;
  std::uint64_t admitted = 0;
  std::uint64_t blocked_value = 0;
  std::uint64_t vn_rx_dropped = 0;

  double frames_per_wall_s() const {
    return static_cast<double>(counts.frames_delivered) / wall_s;
  }
};

/// One cluster, built as E21 builds it, run for `sim_time` one TDMA
/// round at a time.
ClusterRun run_cluster(std::size_t nodes, std::size_t sim_jobs, Duration sim_time,
                       const FaultParams& faults) {
  ClusterRun out;
  const std::int64_t setup_start = now_ns();
  const std::size_t islands = nodes / kIslandNodes;
  const std::size_t pairs = islands * kPairsPerIsland;
  const Duration round = Duration::milliseconds(10);

  platform::ClusterConfig config;
  config.nodes = nodes;
  config.round_length = round;
  std::vector<std::vector<std::size_t>> couplings;
  for (std::size_t p = 0; p < pairs; ++p) {
    const std::size_t base = (p / kPairsPerIsland) * kIslandNodes;
    const std::size_t k = p % kPairsPerIsland;
    const auto producer = static_cast<tt::NodeId>(base + k % kIslandNodes);
    const auto host = static_cast<tt::NodeId>(base + (k + 1) % kIslandNodes);
    config.allocations.push_back(
        {static_cast<tt::VnId>(1 + 2 * p), "dasA" + std::to_string(p), 32, {producer}});
    config.allocations.push_back(
        {static_cast<tt::VnId>(2 + 2 * p), "dasB" + std::to_string(p), 32, {host}});
    couplings.push_back({producer, host});
  }
  platform::derive_partitions(config, couplings);
  config.sim_jobs = sim_jobs;
  platform::Cluster cluster{config};

  std::vector<std::unique_ptr<vn::TtVirtualNetwork>> tt_vns;
  std::vector<std::unique_ptr<vn::EtVirtualNetwork>> et_vns;
  std::vector<std::unique_ptr<core::VirtualGateway>> gateways;
  std::vector<platform::Partition*> gw_partitions(nodes, nullptr);

  for (std::size_t p = 0; p < pairs; ++p) {
    const std::size_t base = (p / kPairsPerIsland) * kIslandNodes;
    const std::size_t k = p % kPairsPerIsland;
    const auto producer = static_cast<tt::NodeId>(base + k % kIslandNodes);
    const auto host = static_cast<tt::NodeId>(base + (k + 1) % kIslandNodes);
    const auto vn_a_id = static_cast<tt::VnId>(1 + 2 * p);
    const auto vn_b_id = static_cast<tt::VnId>(2 + 2 * p);
    const std::string tag = std::to_string(p);

    tt_vns.push_back(std::make_unique<vn::TtVirtualNetwork>("tt" + tag, vn_a_id));
    auto& vn_a = *tt_vns.back();
    vn_a.register_message(state_message("msgA" + tag, "img", 1));
    et_vns.push_back(std::make_unique<vn::EtVirtualNetwork>("et" + tag, vn_b_id));
    auto& vn_b = *et_vns.back();
    vn_a.preregister_metrics(cluster.simulator());
    vn_b.preregister_metrics(cluster.simulator());

    spec::LinkSpec link_a{"dasA" + tag};
    link_a.add_message(state_message("msgA" + tag, "img", 1));
    link_a.add_port(port("msgA" + tag, spec::DataDirection::kInput,
                         spec::ControlParadigm::kTimeTriggered, round, Duration::microseconds(1),
                         Duration::seconds(3600)));
    spec::LinkSpec link_b{"dasB" + tag};
    link_b.add_message(state_message("msgB" + tag, "img", 2));
    link_b.add_port(port("msgB" + tag, spec::DataDirection::kOutput,
                         spec::ControlParadigm::kEventTriggered, Duration::zero()));
    gateways.push_back(std::make_unique<core::VirtualGateway>("gw" + tag, std::move(link_a),
                                                              std::move(link_b)));
    auto& gw = *gateways.back();
    gw.finalize();
    gw.bind_observability(cluster.simulator());
    core::wire_tt_link(gw, 0, vn_a, cluster.controller(host), {});
    core::wire_et_link(gw, 1, vn_b, cluster.controller(host), cluster.vn_slots(vn_b_id, host));
    if (gw_partitions[host] == nullptr) {
      gw_partitions[host] = &cluster.component(host).add_partition(
          "gw", "architecture", Duration::zero(), Duration::milliseconds(2));
    }
    gw_partitions[host]->add_job(std::make_unique<core::GatewayJob>(gw));

    platform::Partition& pp = cluster.component(producer).add_partition(
        "p" + tag, "dasA" + tag,
        Duration::milliseconds(3) + Duration::microseconds(static_cast<std::int64_t>(k) * 300),
        Duration::microseconds(200));
    platform::FunctionJob& job = pp.add_function_job(
        "prod" + tag, [&vn_a, tag](platform::FunctionJob& self, Instant now) {
          spec::MessageInstance inst = spec::make_instance(*vn_a.message_spec("msgA" + tag));
          inst.elements()[1].fields[0] = ta::Value{static_cast<std::int64_t>(self.activations())};
          inst.elements()[1].fields[1] = ta::Value{now};
          inst.set_send_time(now);
          self.ports()[0]->deposit(std::move(inst), now);
        });
    job.set_execution_time(Duration::microseconds(10));
    vn_a.attach_sender(cluster.controller(producer),
                       job.add_port(port("msgA" + tag, spec::DataDirection::kOutput,
                                         spec::ControlParadigm::kTimeTriggered, round)),
                       cluster.vn_slots(vn_a_id, producer));
  }

  fault::FaultPlan plan{cluster.simulator()};
  plan.crash(cluster.controller(faults.crash_node), Instant::origin() + faults.crash_at,
             faults.crash_for);
  plan.babble(cluster.controller(faults.babble_node), Instant::origin() + faults.babble_at,
              /*slot_index=*/0, /*vn=*/tt::kCoreVn, /*count=*/16,
              /*gap=*/Duration::microseconds(500));
  cluster.start();
  out.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  const std::int64_t rounds = sim_time.ns() / round.ns();
  out.round_us.reserve(static_cast<std::size_t>(rounds));
  std::int64_t wall_ns = 0;
  for (std::int64_t r = 0; r < rounds; ++r) {
    const std::int64_t t0 = now_ns();
    cluster.run_for(round);
    const std::int64_t dt = now_ns() - t0;
    wall_ns += dt;
    out.round_us.push_back(static_cast<double>(dt) / 1e3);
  }
  out.wall_s = static_cast<double>(wall_ns) / 1e9;

  for (const auto& gw : gateways) {
    const core::GatewayStats& s = gw->stats();
    out.counts.forwarded += s.messages_constructed;
    out.messages_in += s.messages_in;
    out.admitted += s.messages_admitted;
    out.blocked_value += s.blocked_value;
  }
  for (const auto& vn : tt_vns) out.counts.vn_messages += vn->messages_delivered();
  for (const auto& vn : et_vns) out.counts.vn_messages += vn->messages_delivered();
  out.counts.frames_delivered = cluster.bus().frames_delivered();
  out.counts.frames_blocked = cluster.bus().frames_blocked();
  out.counts.sim_events = cluster.simulator().dispatched();
  out.counts.precision_ns = cluster.precision().ns();
  out.fingerprint = fingerprint(out.counts);

  MergedHistogram dissect;
  MergedHistogram construct;
  cluster.metrics().for_each([&](const obs::MetricsRegistry::InstrumentRef& ref) {
    if (ref.histogram != nullptr && ref.name == "sim.handler_ns") {
      out.handler_p50_ns = static_cast<double>(ref.histogram->percentile(0.5));
      out.handler_mean_ns = ref.histogram->mean();
    } else if (ref.histogram != nullptr && ends_with(ref.name, ".dissect_ns")) {
      dissect.add(*ref.histogram);
    } else if (ref.histogram != nullptr && ends_with(ref.name, ".construct_ns")) {
      construct.add(*ref.histogram);
    } else if (ref.counter != nullptr && ends_with(ref.name, ".deliver_overflow")) {
      out.vn_rx_dropped += ref.counter->value();
    }
  });
  out.dissect_p50_ns = dissect.p50();
  out.construct_p50_ns = construct.p50();
  return out;
}

std::string describe(const FaultParams& f) {
  return format("crash node %zu at %.3f s for %.3f s, babble node %zu at %.3f s", f.crash_node,
                f.crash_at.as_seconds(), f.crash_for.as_seconds(), f.babble_node,
                f.babble_at.as_seconds());
}

}  // namespace

FaultParams fault_params(std::uint64_t seed, std::size_t nodes, Duration sim_time) {
  FaultParams f;
  f.crash_for = sim_time / 6;
  if (seed == kDefaultSimSeed) {  // E21's plan
    f.crash_node = 2;
    f.crash_at = sim_time / 3;
    f.babble_node = (kIslandNodes + 3) % nodes;
    f.babble_at = sim_time / 2;
    return f;
  }
  std::uint64_t state = seed;
  const auto jitter_ms = [&] {
    return Duration::milliseconds(static_cast<std::int64_t>(splitmix64(state) % 101) - 50);
  };
  f.crash_node = splitmix64(state) % nodes;
  f.crash_at = sim_time / 3 + jitter_ms();
  f.babble_node = splitmix64(state) % nodes;
  f.babble_at = sim_time / 2 + jitter_ms();
  return f;
}

ClusterCounts simulate_counts(std::uint64_t seed) {
  const Duration sim_time = Duration::seconds(1);
  return run_cluster(kSimNodes, 1, sim_time, fault_params(seed, kSimNodes, sim_time)).counts;
}

bool matches_committed(const ClusterCounts& counts) {
  return counts.sim_events == kCommittedDefault.sim_events &&
         fingerprint(counts) == kCommittedDefault.fingerprint;
}

Report run_sim_cluster(const SimConfig& config) {
  Report report;
  const int core = config.cores.empty() ? -1 : config.cores.back();
  if (core >= 0) pin_current_thread({core});
  report.pinned_cores = {core};
  const Duration sim_time = Duration::seconds(1);
  const FaultParams faults = fault_params(config.seed, kSimNodes, sim_time);
  report.note("workload", format("sim_cluster %zu nodes, 1 simulated s, serial kernel; "
                                 "seed %llu: %s",
                                 kSimNodes, static_cast<unsigned long long>(config.seed),
                                 describe(faults).c_str()));

  // Measured runs: fresh clusters until the time budget is spent. Every
  // run of one seed must reproduce the first one's counters exactly.
  const double budget = config.trace ? config.seconds / 2 : config.seconds;
  std::vector<ClusterRun> runs;
  std::uint64_t failed = 0;
  const std::int64_t start = now_ns();
  while (runs.empty() || static_cast<double>(now_ns() - start) / 1e9 < budget) {
    runs.push_back(run_cluster(kSimNodes, 1, sim_time, faults));
    const ClusterRun& r = runs.back();
    if (r.counts.sim_events != runs.front().counts.sim_events ||
        r.fingerprint != runs.front().fingerprint)
      ++failed;
  }
  const ClusterRun& first = runs.front();
  report.check(failed == 0, format("%zu runs of seed %llu repeat sim.events %llu and fingerprint "
                                   "%016llx exactly (%llu differ)",
                                   runs.size(), static_cast<unsigned long long>(config.seed),
                                   static_cast<unsigned long long>(first.counts.sim_events),
                                   static_cast<unsigned long long>(first.fingerprint),
                                   static_cast<unsigned long long>(failed)));

  // The committed values pin the default seed; other seeds run it once more.
  std::uint64_t attempted = runs.size();
  ClusterCounts reference = first.counts;
  if (config.seed != kDefaultSimSeed) {
    reference = simulate_counts(kDefaultSimSeed);
    ++attempted;
  }
  const bool committed = matches_committed(reference);
  if (!committed) ++failed;
  report.check(committed, format("default seed reproduces the committed sim.events %llu and "
                                 "fingerprint %016llx (got %llu, %016llx)",
                                 static_cast<unsigned long long>(kCommittedDefault.sim_events),
                                 static_cast<unsigned long long>(kCommittedDefault.fingerprint),
                                 static_cast<unsigned long long>(reference.sim_events),
                                 static_cast<unsigned long long>(fingerprint(reference))));

  // Host interference comes in bursts of a few rounds that hit different
  // rounds in different runs, while every run of one seed does the same
  // work per round: the fastest observation of each round is its cost.
  std::vector<double> round_min(runs.front().round_us.size(), 1e300);
  std::vector<double> wall_ms_per_sim_s;
  std::vector<double> throughput;
  std::vector<double> setups;
  for (const ClusterRun& r : runs) {
    wall_ms_per_sim_s.push_back(r.wall_s * 1e3 / sim_time.as_seconds());
    throughput.push_back(r.frames_per_wall_s());
    setups.push_back(r.setup_s);
    for (std::size_t i = 0; i < round_min.size() && i < r.round_us.size(); ++i)
      round_min[i] = std::min(round_min[i], r.round_us[i]);
  }
  double floor_s = 0.0;
  for (const double us : round_min) floor_s += us / 1e6;
  const double floor_fps = static_cast<double>(first.counts.frames_delivered) / floor_s;
  std::vector<double> rounds = round_min;
  const double round_p50 = percentile(rounds, 0.5);
  const double round_p99 = percentile(rounds, 0.99);
  report.note("phase", format("sim_cluster: %zu runs, %llu frames and %llu events per run; "
                              "wall_ms_per_sim_s %.3f median, %.3f from per-round minima; "
                              "frames/s %.0f median, %.0f from per-round minima; per-round "
                              "minimum over %zu rounds: p50 %.1f us, p99 %.1f us",
                              runs.size(),
                              static_cast<unsigned long long>(first.counts.frames_delivered),
                              static_cast<unsigned long long>(first.counts.sim_events),
                              median(wall_ms_per_sim_s), floor_s * 1e3 / sim_time.as_seconds(),
                              median(throughput), floor_fps, round_min.size(), round_p50,
                              round_p99));
  report.note("errors", format("sim_cluster: %llu of %llu runs failed their checks, "
                               "error_rate %.3g",
                               static_cast<unsigned long long>(failed),
                               static_cast<unsigned long long>(attempted),
                               static_cast<double>(failed) / static_cast<double>(attempted)));
  report.attempted = attempted;
  report.failed = failed;

  if (!config.trace) {
    report.add("throughput_fps", floor_fps, "1/s");
    report.add("p50_us", round_p50, "us");
    report.add("p99_us", round_p99, "us");
    report.add("setup_s", median(setups), "s");
    return report;
  }

  // Per-layer: the serial runs' own instruments, and one run of the
  // partitioned kernel on two workers (two cores) against them.
  const CorePair pair = best_pair(config.cores);
  if (pair.first >= 0) pin_current_thread({pair.first, pair.second});
  const ClusterRun parallel = run_cluster(kSimNodes, 2, sim_time, faults);
  if (core >= 0) pin_current_thread({core});
  report.check(parallel.fingerprint == first.fingerprint &&
                   parallel.counts.sim_events == first.counts.sim_events,
               "2-worker partitioned run is byte-identical to serial (events, fingerprint)");
  const ClusterRun& last = runs.back();
  const double serial_wall = median(wall_ms_per_sim_s) / 1e3;
  const double ns_per_event = serial_wall * 1e9 / static_cast<double>(last.counts.sim_events);
  report.note("phase", format("sim_cluster 2 workers on cores %d,%d (round trip %.0f ns): "
                              "wall_ms_per_sim_s %.3f, speedup %.3fx",
                              pair.first, pair.second, pair.rtt_ns, parallel.wall_s * 1e3,
                              serial_wall / parallel.wall_s));
  report.add("sim.events", static_cast<double>(last.counts.sim_events), "count");
  report.add("sim.ns_per_event", ns_per_event, "ns");
  report.add("sim.handler_ns.p50", last.handler_p50_ns, "ns");
  report.add("sim.kernel_ns_per_event", ns_per_event - last.handler_mean_ns, "ns");
  report.add("sim.speedup_2w", serial_wall / parallel.wall_s, "x");
  report.add("tt.frames_delivered", static_cast<double>(last.counts.frames_delivered), "count");
  report.add("tt.frames_blocked", static_cast<double>(last.counts.frames_blocked), "count");
  report.add("gw.forwarded", static_cast<double>(last.counts.forwarded), "count");
  report.add("gw.dissect_ns.p50", last.dissect_p50_ns, "ns");
  report.add("gw.construct_ns.p50", last.construct_p50_ns, "ns");
  report.add("core.messages_in", static_cast<double>(last.messages_in), "count");
  report.add("core.admitted_share",
             last.messages_in == 0 ? 0.0
                                   : static_cast<double>(last.admitted) /
                                         static_cast<double>(last.messages_in),
             "ratio");
  report.add("core.blocked_value", static_cast<double>(last.blocked_value), "count");
  report.add("vn.rx_dropped", static_cast<double>(last.vn_rx_dropped), "count");
  return report;
}

}  // namespace perfbench
