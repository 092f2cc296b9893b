// The simulated workload: E21's island cluster (8-node islands, eight
// DAS pairs per island, each a TT VN + an ET VN + a hidden gateway) at
// 256 nodes on the serial kernel, with a crash and a babbling-idiot
// fault injected. The seed places the faults; seed 0 is E21's own plan.
#pragma once

#include <cstdint>
#include <vector>

#include "checks.hpp"
#include "report.hpp"
#include "util/time.hpp"

namespace perfbench {

struct FaultParams {
  std::size_t crash_node = 0;
  decos::Duration crash_at;
  decos::Duration crash_for;
  std::size_t babble_node = 0;
  decos::Duration babble_at;
};

constexpr std::uint64_t kDefaultSimSeed = 0;
constexpr std::size_t kSimNodes = 256;

/// Where the seed puts the crash and the babbling burst in a run of
/// `sim_time` over `nodes` nodes.
FaultParams fault_params(std::uint64_t seed, std::size_t nodes, decos::Duration sim_time);

/// Counters and fingerprint committed for kDefaultSimSeed at kSimNodes
/// nodes and one simulated second (equal to E21's at 256 nodes).
struct CommittedCluster {
  std::uint64_t sim_events;
  std::uint64_t fingerprint;
};
constexpr CommittedCluster kCommittedDefault{2686625, 0x01d3dca66acaefd8ull};

/// True when a default-seed run reproduced the committed values.
bool matches_committed(const ClusterCounts& counts);

/// Build and run one cluster of `seed` (kSimNodes nodes, one simulated
/// second, serial kernel) and return its counters.
ClusterCounts simulate_counts(std::uint64_t seed);

struct SimConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::vector<int> cores;  // allowed cores: the simulator runs on the last
};

/// One benchmark run of sim_cluster: end-to-end metrics untraced,
/// per-layer metrics traced.
Report run_sim_cluster(const SimConfig& config);

}  // namespace perfbench
