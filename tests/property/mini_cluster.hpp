// Seeded mini-cluster harness shared by the lockstep property tests:
// multiple disjoint islands, drifting clocks, hidden gateways,
// randomized partition offsets and fault times, all derived from one
// seed. run_mini_cluster() executes the cluster for 300ms and folds
// every observable artifact -- causal span tree, deterministic metrics
// fingerprint, windowed telemetry, dispatch/forward counts -- into a
// RunArtifacts value the callers compare for *identity*:
//
//   partitioned_lockstep_test      varies --sim-jobs          (S28)
//   batched_dispatch_lockstep_test pins a per-instance golden (S29)
#pragma once

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/gateway_job.hpp"
#include "core/wiring.hpp"
#include "fault/plan.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "platform/cluster.hpp"
#include "util/rng.hpp"
#include "util/symbol.hpp"
#include "vn/et_vn.hpp"
#include "vn/tt_vn.hpp"

namespace decos::minicluster {

using namespace decos::literals;

constexpr std::size_t kIslands = 3;
constexpr std::size_t kIslandNodes = 4;
constexpr std::size_t kPairsPerIsland = 2;

inline spec::MessageSpec state_message(const std::string& message_name,
                                       const std::string& element_name, int id) {
  spec::MessageSpec ms{message_name};
  spec::ElementSpec key;
  key.name = "name";
  key.key = true;
  key.fields.push_back(spec::FieldSpec{"id", spec::FieldType::kInt16, 0, ta::Value{id}});
  ms.add_element(std::move(key));
  spec::ElementSpec payload;
  payload.name = element_name;
  payload.convertible = true;
  payload.fields.push_back(spec::FieldSpec{"value", spec::FieldType::kInt32, 0, std::nullopt});
  payload.fields.push_back(spec::FieldSpec{"t", spec::FieldType::kTimestamp, 0, std::nullopt});
  ms.add_element(std::move(payload));
  return ms;
}

inline spec::PortSpec input_port(const std::string& message, Duration period) {
  spec::PortSpec ps;
  ps.message = message;
  ps.direction = spec::DataDirection::kInput;
  ps.semantics = spec::InfoSemantics::kState;
  ps.paradigm = spec::ControlParadigm::kTimeTriggered;
  ps.period = period;
  ps.min_interarrival = 1_us;
  ps.max_interarrival = Duration::seconds(3600);
  ps.queue_capacity = 16;
  return ps;
}

inline spec::PortSpec output_port(const std::string& message) {
  spec::PortSpec ps;
  ps.message = message;
  ps.direction = spec::DataDirection::kOutput;
  ps.semantics = spec::InfoSemantics::kState;
  ps.paradigm = spec::ControlParadigm::kEventTriggered;
  ps.period = Duration::zero();
  ps.queue_capacity = 16;
  return ps;
}

inline spec::PortSpec tt_output_port(const std::string& message, Duration period) {
  spec::PortSpec ps;
  ps.message = message;
  ps.direction = spec::DataDirection::kOutput;
  ps.semantics = spec::InfoSemantics::kState;
  ps.paradigm = spec::ControlParadigm::kTimeTriggered;
  ps.period = period;
  ps.queue_capacity = 16;
  return ps;
}

inline spec::MessageInstance state_instance(const spec::MessageSpec& ms, std::int64_t value,
                                            Instant t) {
  spec::MessageInstance inst = spec::make_instance(ms);
  inst.elements()[1].fields[0] = ta::Value{value};
  inst.elements()[1].fields[1] = ta::Value{t};
  inst.set_send_time(t);
  return inst;
}

struct RunArtifacts {
  std::size_t partitions = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t forwarded = 0;
  std::string span_tree;
  std::string metrics_fingerprint;
  std::string telemetry;  // deterministic JSONL lines only
};

/// Drop telemetry lines carrying host-time content: wall-clock
/// histograms legitimately differ between two runs of *any* worker
/// count, and the stream tags them for exactly this purpose.
inline std::string deterministic_lines(const std::string& stream) {
  std::istringstream in{stream};
  std::ostringstream out;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"deterministic\":false") == std::string::npos) out << line << "\n";
  }
  return out.str();
}

inline RunArtifacts run_mini_cluster(std::uint64_t seed, std::size_t sim_jobs) {
  Rng rng{seed};
  constexpr std::size_t kNodes = kIslands * kIslandNodes;
  constexpr std::size_t kPairs = kIslands * kPairsPerIsland;

  platform::ClusterConfig config;
  config.nodes = kNodes;
  config.round_length = 10_ms;
  for (std::size_t i = 0; i < kNodes; ++i)
    config.drift_ppm.push_back(static_cast<double>(rng.uniform_int(-60, 60)));
  std::vector<std::vector<std::size_t>> couplings;
  for (std::size_t p = 0; p < kPairs; ++p) {
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
  cluster.spans().set_enabled(true);

  std::ostringstream telemetry_out;
  obs::OstreamTelemetrySink telemetry_sink{telemetry_out};
  obs::TelemetryConfig telemetry_config;
  telemetry_config.window = 50_ms;
  obs::WindowAggregator& aggregator = cluster.simulator().enable_telemetry(telemetry_config);
  aggregator.set_sink(&telemetry_sink);

  std::vector<std::unique_ptr<vn::TtVirtualNetwork>> tt_vns;
  std::vector<std::unique_ptr<vn::EtVirtualNetwork>> et_vns;
  std::vector<std::unique_ptr<core::VirtualGateway>> gateways;
  std::vector<platform::Partition*> gw_partitions(kNodes, nullptr);

  for (std::size_t p = 0; p < kPairs; ++p) {
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
    // S28 pre-registration rule: a parallel phase must never be the
    // first to register an instrument.
    vn_a.preregister_metrics(cluster.simulator());
    vn_b.preregister_metrics(cluster.simulator());

    spec::LinkSpec link_a{"dasA" + tag};
    link_a.add_message(state_message("msgA" + tag, "img", 1));
    link_a.add_port(input_port("msgA" + tag, config.round_length));
    spec::LinkSpec link_b{"dasB" + tag};
    link_b.add_message(state_message("msgB" + tag, "img", 2));
    link_b.add_port(output_port("msgB" + tag));
    gateways.push_back(std::make_unique<core::VirtualGateway>("gw" + tag, std::move(link_a),
                                                              std::move(link_b)));
    auto& gw = *gateways.back();
    gw.finalize();
    gw.bind_observability(cluster.simulator());
    core::wire_tt_link(gw, 0, vn_a, cluster.controller(host), {});
    core::wire_et_link(gw, 1, vn_b, cluster.controller(host), cluster.vn_slots(vn_b_id, host));
    if (gw_partitions[host] == nullptr) {
      gw_partitions[host] =
          &cluster.component(host).add_partition("gw", "architecture", 0_ms, 2_ms);
    }
    gw_partitions[host]->add_job(std::make_unique<core::GatewayJob>(gw));

    // Randomized (but seed-determined) activation offset and execution
    // time, so different seeds exercise different slot/partition
    // interleavings. Offsets start past the gateway partition's 0-2ms
    // window and end before the 10ms round.
    platform::Partition& pp = cluster.component(producer).add_partition(
        "p" + tag, "dasA" + tag,
        Duration::microseconds(2500 + rng.uniform_int(0, 6000)), 200_us);
    platform::FunctionJob& job = pp.add_function_job(
        "prod" + tag, [&vn_a, tag](platform::FunctionJob& self, Instant now) {
          self.ports()[0]->deposit(
              state_instance(*vn_a.message_spec("msgA" + tag),
                             static_cast<std::int64_t>(self.activations()), now),
              now);
        });
    job.set_execution_time(Duration::microseconds(rng.uniform_int(5, 30)));
    vn_a.attach_sender(cluster.controller(producer),
                       job.add_port(tt_output_port("msgA" + tag, config.round_length)),
                       cluster.vn_slots(vn_a_id, producer));
  }

  // Cross-partition traffic beyond the steady TDMA flow: a transient
  // crash and a babbling burst, at seed-determined nodes and times.
  fault::FaultPlan faults{cluster.simulator()};
  faults.crash(cluster.controller(static_cast<std::size_t>(rng.uniform_int(0, kNodes - 1))),
               Instant::origin() + Duration::milliseconds(rng.uniform_int(60, 120)), 50_ms);
  faults.babble(cluster.controller(static_cast<std::size_t>(rng.uniform_int(0, kNodes - 1))),
                Instant::origin() + Duration::milliseconds(rng.uniform_int(150, 220)),
                /*slot_index=*/0, /*vn=*/tt::kCoreVn, /*count=*/8, /*gap=*/500_us);

  cluster.start();
  cluster.run_for(300_ms);
  aggregator.flush();
  aggregator.set_sink(nullptr);

  RunArtifacts artifacts;
  artifacts.partitions = config.partitions;
  artifacts.dispatched = cluster.simulator().dispatched();
  for (const auto& gw : gateways) artifacts.forwarded += gw->stats().messages_constructed;

  std::ostringstream spans;
  for (const obs::Span& s : cluster.spans().spans()) {
    spans << "trace=" << s.trace_id << " id=" << s.span_id << " parent=" << s.parent_id
          << " phase=" << obs::phase_name(s.phase) << " track=" << symbol_name(s.track)
          << " name=" << symbol_name(s.name) << " start=" << (s.start - Instant::origin()).ns()
          << " end=" << (s.end - Instant::origin()).ns() << " value=" << s.value << "\n";
  }
  artifacts.span_tree = spans.str();
  artifacts.metrics_fingerprint = cluster.metrics().snapshot().deterministic_fingerprint();
  artifacts.telemetry = deterministic_lines(telemetry_out.str());
  return artifacts;
}

}  // namespace decos::minicluster
