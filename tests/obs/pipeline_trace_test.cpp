// End-to-end observability over a gateway pipeline (the E6 topology): a
// TT producer in DAS A, the virtual gateway on node 2, a TT consumer in
// DAS B. Checks that every message instance carries one causally linked
// span chain send -> bus -> dissect -> repo_wait -> construct -> deliver,
// and that identical runs produce identical spans and metric snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>

#include "../helpers.hpp"
#include "core/gateway_job.hpp"
#include "core/virtual_gateway.hpp"
#include "core/wiring.hpp"
#include "obs/analysis.hpp"
#include "obs/export.hpp"
#include "platform/cluster.hpp"
#include "vn/tt_vn.hpp"

namespace decos {
namespace {

using namespace decos::literals;
using decos::testing::make_state_instance;
using decos::testing::state_message;

struct RunResult {
  std::vector<obs::Span> spans;
  std::string fingerprint;
  std::string dump;  // full JSONL serialization (spans + metrics)
  std::size_t delivered = 0;
};

spec::PortSpec tt_port(const std::string& message, spec::DataDirection direction,
                       Duration period) {
  spec::PortSpec ps;
  ps.message = message;
  ps.direction = direction;
  ps.semantics = spec::InfoSemantics::kState;
  ps.paradigm = spec::ControlParadigm::kTimeTriggered;
  ps.period = period;
  ps.min_interarrival = 1_us;
  ps.max_interarrival = Duration::seconds(3600);
  return ps;
}

RunResult run_pipeline() {
  platform::ClusterConfig config;
  config.nodes = 3;
  config.round_length = 10_ms;
  config.allocations = {
      {1, "dasA", 32, {0}},
      {2, "dasB", 32, {2}},
  };
  platform::Cluster cluster{config};

  vn::TtVirtualNetwork vn_a{"vn-a", 1};
  vn_a.register_message(state_message("msgA", "image", 1));
  vn::TtVirtualNetwork vn_b{"vn-b", 2};

  spec::LinkSpec link_a{"dasA"};
  link_a.add_message(state_message("msgA", "image", 1));
  link_a.add_port(tt_port("msgA", spec::DataDirection::kInput, 10_ms));
  spec::LinkSpec link_b{"dasB"};
  link_b.add_message(state_message("msgB", "image", 2));
  link_b.add_port(tt_port("msgB", spec::DataDirection::kOutput, 10_ms));

  core::GatewayConfig gwc;
  gwc.default_d_acc = 40_ms;
  gwc.dispatch_period = 1_ms;
  core::VirtualGateway gateway{"pipe", std::move(link_a), std::move(link_b), gwc};
  gateway.finalize();
  core::wire_tt_link(gateway, 0, vn_a, cluster.controller(2), {});
  core::wire_tt_link(gateway, 1, vn_b, cluster.controller(2), {{"msgB", cluster.vn_slots(2, 2)}});
  cluster.component(2)
      .add_partition("gw", "architecture", 0_ms, 1_ms)
      .add_job(std::make_unique<core::GatewayJob>(gateway));

  platform::Partition& p0 = cluster.component(0).add_partition("prod", "dasA", 1_ms, 1_ms);
  platform::FunctionJob& producer = p0.add_function_job(
      "producer", [&vn_a](platform::FunctionJob& self, Instant now) {
        self.ports()[0]->deposit(
            make_state_instance(*vn_a.message_spec("msgA"),
                                static_cast<int>(self.activations()), now),
            now);
      });
  vn_a.attach_sender(cluster.controller(0),
                     producer.add_port(tt_port("msgA", spec::DataDirection::kOutput, 10_ms)),
                     cluster.vn_slots(1, 0));

  RunResult result;
  vn::Port consumer{tt_port("msgB", spec::DataDirection::kInput, 10_ms)};
  vn_b.attach_receiver(cluster.controller(1), consumer);
  consumer.set_notify([&result](vn::Port& port) {
    if (port.read()) ++result.delivered;
  });

  cluster.start();
  cluster.run_for(200_ms);

  for (const obs::Span& s : cluster.spans().spans()) result.spans.push_back(s);
  result.fingerprint = cluster.metrics().snapshot().deterministic_fingerprint();

  std::ostringstream out;
  obs::DumpWriter writer{out};
  writer.begin_cell("pipeline");
  writer.add_spans(cluster.spans());
  result.dump = out.str();
  return result;
}

TEST(PipelineTrace, EveryPhaseAppearsAndChainsAreIntact) {
  const RunResult run = run_pipeline();
  ASSERT_GT(run.delivered, 0u);
  ASSERT_FALSE(run.spans.empty());

  std::set<obs::Phase> seen;
  for (const obs::Span& s : run.spans) seen.insert(s.phase);
  EXPECT_EQ(seen.size(), obs::kPhaseCount) << "some pipeline phase never emitted a span";

  const std::vector<std::string> violations = obs::check_span_integrity(run.spans);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(PipelineTrace, BreakdownMeasuresTheGatewayFlow) {
  const RunResult run = run_pipeline();
  const std::vector<obs::FlowHealth> flows = obs::phase_breakdown(run.spans);
  const auto it = std::find_if(flows.begin(), flows.end(),
                               [](const obs::FlowHealth& f) { return f.flow == "msgA->msgB"; });
  ASSERT_NE(it, flows.end()) << "expected an end-to-end msgA->msgB flow";
  const obs::FlowHealth& flow = *it;
  for (const char* phase : obs::kBreakdownPhases) {
    const auto p = flow.phases.find(phase);
    ASSERT_NE(p, flow.phases.end()) << phase << " missing from breakdown";
    EXPECT_NE(p->second.n, 0u) << phase << " has no samples";
  }
  // End-to-end latency must cover at least the bus ingress and be bounded
  // by the run length.
  const obs::FlowHealth::PhaseAgg& total = flow.phases.at("total");
  EXPECT_GT(total.min_ns, 0);
  EXPECT_LT(total.max_ns, Duration::milliseconds(200).ns());
}

TEST(PipelineTrace, IdenticalRunsProduceIdenticalObservability) {
  const RunResult a = run_pipeline();
  const RunResult b = run_pipeline();
  EXPECT_EQ(a.delivered, b.delivered);
  // Same spans, ids, timestamps: byte-identical serialized dumps.
  EXPECT_EQ(a.dump, b.dump);
  // Same deterministic metric values (host-time histograms excluded).
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

}  // namespace
}  // namespace decos
