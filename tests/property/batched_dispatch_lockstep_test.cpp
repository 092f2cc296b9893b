// Lockstep property of gateway dispatch (S29): the precompiled drain
// through GatewayLink::input_bindings() is an *optimization* of the
// per-instance on_input() drain it replaced, not a semantics change. A
// seeded mini-cluster -- drifting clocks, faults, randomized offsets --
// must reproduce every observable artifact of that per-instance drain:
// span trees, metrics fingerprints, telemetry, dispatch and forward
// counts. The per-instance drain no longer exists in the engine; its
// artifacts are pinned as golden digests (64-bit FNV-1a of each
// artifact) under tests/property/golden/dispatch_lockstep_seed<N>.txt,
// recorded from the last engine that could still select it. Checked at
// --sim-jobs 1 and 8 so the equivalence also composes with the
// partitioned kernel (S28). A deliberate change of gateway behaviour
// edits the fixtures by hand (a mismatch prints the run's digest).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>

#include "mini_cluster.hpp"

namespace decos {
namespace {

using minicluster::RunArtifacts;
using minicluster::run_mini_cluster;

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << hash;
  return out.str();
}

/// The golden fixture's text for one run.
std::string digest(std::uint64_t seed, const RunArtifacts& run) {
  std::ostringstream out;
  out << "seed " << seed << "\n"
      << "dispatched " << run.dispatched << "\n"
      << "forwarded " << run.forwarded << "\n"
      << "span_tree " << fnv1a_hex(run.span_tree) << "\n"
      << "metrics_fingerprint " << fnv1a_hex(run.metrics_fingerprint) << "\n"
      << "telemetry " << fnv1a_hex(run.telemetry) << "\n";
  return out.str();
}

std::string golden_path(std::uint64_t seed) {
  return std::string{DECOS_PROPERTY_GOLDEN_DIR} + "/dispatch_lockstep_seed" +
         std::to_string(seed) + ".txt";
}

class BatchedDispatchLockstep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchedDispatchLockstep, ArtifactsIdenticalToPerInstanceDispatch) {
  const std::uint64_t seed = GetParam();
  const std::string path = golden_path(seed);
  std::ifstream in{path};
  ASSERT_TRUE(in.good()) << "missing golden fixture " << path;
  std::stringstream golden;
  golden << in.rdbuf();

  for (const std::size_t sim_jobs : {std::size_t{1}, std::size_t{8}}) {
    const RunArtifacts run = run_mini_cluster(seed, sim_jobs);
    ASSERT_GT(run.forwarded, 0u) << "mini cluster never forwarded a message";
    ASSERT_FALSE(run.span_tree.empty());
    ASSERT_FALSE(run.telemetry.empty());
    EXPECT_EQ(digest(seed, run), golden.str())
        << "sim-jobs " << sim_jobs << " diverged from the per-instance dispatch golden";
  }
}

TEST_P(BatchedDispatchLockstep, ReferencePathIsDeterministicToo) {
  // Baseline sanity: the dispatch path is seed-deterministic, so a pass
  // above cannot come from a digest collision of two unstable runs.
  const RunArtifacts a = run_mini_cluster(GetParam(), 1);
  const RunArtifacts b = run_mini_cluster(GetParam(), 1);
  EXPECT_EQ(a.span_tree, b.span_tree);
  EXPECT_EQ(a.metrics_fingerprint, b.metrics_fingerprint);
  EXPECT_EQ(a.telemetry, b.telemetry);
  EXPECT_EQ(a.dispatched, b.dispatched);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchedDispatchLockstep, ::testing::Values(7, 99, 2026));

}  // namespace
}  // namespace decos
