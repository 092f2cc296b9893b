// declint -- static analysis of a complete gateway/VN deployment before
// any simulation step (paper Section IV: the link specification is a
// checkable contract; related work treats pre-deployment consistency
// checking of distributed schedules as a first-class tool).
//
// The analyzer operates on a *deployment model*: the two link
// specifications of a virtual gateway plus the repository meta data and
// dispatch configuration, optionally joined by the TDMA schedule of the
// physical core network. It deliberately does not depend on core/ --
// core depends on lint for strict construction (GatewayConfig::
// strict_lint), so the model mirrors VirtualGateway's configuration in
// plain data.
//
// Rule classes (each documented in README "Static analysis"):
//   DL001  transfer-rule consistency (dangling sources, duplicate or
//          dead derived elements)
//   DL002  static expression typing against MessageSpec field types
//          (filters, transfer updates, guards; construction field
//          compatibility between the two links)
//   DL003  TDMA schedule: slot overlap / containment / ownership and
//          bandwidth over-subscription per virtual network
//   DL004  automaton structure: missing initial location, unreachable
//          locations, undefined identifiers in guards/assignments,
//          dead port-interaction edges
//   DL005  temporal-accuracy horizon feasibility: statically dead state
//          messages (t_update + d_acc can never cover the dispatch
//          period; elements no input ever produces)
//   DL006  port sanity: period/round and period/dispatch divisibility,
//          event-queue capacity vs the E5 sizing rule, interarrival
//          bounds
//   DL007  dead convertible elements: elements flagged convertible that
//          no compiled transfer plan ever binds (no output message is
//          constructed from them, no transfer rule consumes them) --
//          dissection silently discards every instance
//
// Whole-cluster rules (lint/flowgraph.hpp joins all gateways of a
// deployment into end-to-end flows; lint_cluster runs these):
//   DL008  static end-to-end latency bounds per flow vs the consumers'
//          temporal accuracy d_acc (lint/timing.hpp)
//   DL009  symbolic filter/rule feasibility over value intervals: dead
//          filters, tautological filters, rules that can never fire,
//          filters shadowed by upstream filters (lint/symbolic.hpp)
//   DL010  worst-case queue occupancy under cross-hop burst compounding
//          (lint/timing.hpp)
//
// Runtime-deployment rule (active when the model carries the transport
// ring capacity of the live runtime, `decogw --ring-capacity`):
//   DL011  event-port queue sizing vs transport ring capacity: the
//          repository queue an event element provisions (validated by
//          DL006/DL010) exceeds the number of frames of its message the
//          runtime's ingress ring can buffer -- under a burst the ring
//          drops frames at the transport before admission ever sees
//          them, so the provisioned queue depth is unreachable
#pragma once

#include <array>
#include <map>
#include <optional>
#include <string>

#include "lint/diagnostic.hpp"
#include "spec/link_spec.hpp"
#include "spec/vn_spec.hpp"
#include "tt/schedule.hpp"
#include "util/time.hpp"

namespace decos::lint {

inline constexpr char kRuleTransfer[] = "DL001";
inline constexpr char kRuleTypes[] = "DL002";
inline constexpr char kRuleSchedule[] = "DL003";
inline constexpr char kRuleAutomaton[] = "DL004";
inline constexpr char kRuleHorizon[] = "DL005";
inline constexpr char kRulePorts[] = "DL006";
inline constexpr char kRuleDeadElement[] = "DL007";
inline constexpr char kRuleLatency[] = "DL008";
inline constexpr char kRuleSymbolic[] = "DL009";
inline constexpr char kRuleOccupancy[] = "DL010";
inline constexpr char kRuleRingCapacity[] = "DL011";

/// Repository meta data of one convertible element as deployed
/// (mirrors core::ElementDecl without depending on core/).
struct ElementMeta {
  spec::InfoSemantics semantics = spec::InfoSemantics::kState;
  Duration d_acc = Duration::milliseconds(50);
  std::size_t queue_capacity = 16;
};

/// Deployment-level view of one virtual gateway: everything
/// VirtualGateway::finalize() would act on, in analyzable form.
struct GatewayModel {
  std::string name = "gateway";
  Duration dispatch_period = Duration::milliseconds(1);
  Duration default_d_acc = Duration::milliseconds(50);
  std::size_t default_queue_capacity = 16;

  std::array<const spec::LinkSpec*, 2> links{nullptr, nullptr};
  /// Element renaming per side: link-namespace name -> repository name.
  std::array<std::map<std::string, std::string>, 2> rename_to_repo;
  /// Explicit per-element overrides, keyed by repository name.
  std::map<std::string, ElementMeta> element_overrides;

  /// Optional physical-network context for DL003: the TDMA schedule of
  /// the core network and the VnId each link's virtual network rides on.
  const tt::TdmaSchedule* schedule = nullptr;
  std::array<std::optional<tt::VnId>, 2> link_vn;

  /// Optional live-runtime transport context for DL011: the requested
  /// byte capacity of the per-endpoint ingress ring (src/rt/ring.hpp),
  /// judged at the size the runtime rounds it up to. Zero means "not
  /// deployed on the live runtime"; the rule stays silent.
  std::size_t transport_ring_bytes = 0;

  /// Repository (canonical) name of `element` as seen from `side`.
  const std::string& repo_name(int side, const std::string& element) const;
  /// Effective meta data for repository element `repo` given the
  /// semantics its producer declares.
  ElementMeta element_meta(const std::string& repo, spec::InfoSemantics produced) const;
};

/// Full deployment analysis of a gateway: every local rule class
/// (DL001-DL007) plus the whole-cluster rules (DL008-DL010) over the
/// one-gateway cluster -- so strict finalize also catches an infeasible
/// latency bound.
Report lint_gateway(const GatewayModel& model);

/// Local rules only (DL001-DL007). declint uses this when analyzing
/// several gateways jointly, so cluster findings are not duplicated per
/// file.
Report lint_gateway_local(const GatewayModel& model);

/// Standalone analysis of a single link specification (the subset of
/// rules decidable without the opposite link: local DL001/DL002/DL004).
Report lint_link(const spec::LinkSpec& link);

/// Structural analysis of a TDMA schedule (DL003).
Report lint_schedule(const tt::TdmaSchedule& schedule);

/// Virtual-network-level analysis: link coherence, TT-port/round
/// divisibility (DL006) and -- when a schedule is given -- bandwidth
/// feasibility of the VN's slot allocation (DL003).
Report lint_virtual_network(const spec::VirtualNetworkSpec& vn,
                            const tt::TdmaSchedule* schedule = nullptr,
                            tt::VnId vn_id = tt::kCoreVn);

}  // namespace decos::lint
