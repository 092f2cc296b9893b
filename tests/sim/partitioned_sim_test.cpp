// Engine-level semantics of the partitioned kernel (S28): wheel routing,
// the global-before-partition ordering rule at equal instants, mailbox
// drain order at barrier commits, and the satellite contract that
// sim.queue_depth / sim.schedule_past_clamped aggregate across wheels
// exactly as they would on the classic kernel.
#include "sim/simulator.hpp"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hpp"
#include "util/time.hpp"

namespace decos::sim {
namespace {

using namespace decos::literals;

Instant at(Duration d) { return Instant::origin() + d; }

TEST(PartitionedSimTest, ConfigureAndAmbientRouting) {
  Simulator sim;
  EXPECT_FALSE(sim.partitioned());
  sim.configure_partitions(3, 1);
  EXPECT_TRUE(sim.partitioned());
  EXPECT_EQ(sim.partition_count(), 3u);
  EXPECT_EQ(sim.sim_jobs(), 1u);

  // Default ambient kernel is the global wheel.
  EXPECT_EQ(sim.current_kernel(), 0u);
  const EventId global_id = sim.schedule_at(at(1_ms), [] {});
  EXPECT_EQ(EventQueue::kernel_of(global_id), 0u);

  // schedule_on targets an explicit wheel; KernelScope retargets the
  // ambient wheel for everything scheduled in scope, and restores on
  // exit (nesting included).
  const EventId direct_id = sim.schedule_on(2, at(1_ms), [] {});
  EXPECT_EQ(EventQueue::kernel_of(direct_id), 2u);
  {
    KernelScope outer{sim, 1};
    EXPECT_EQ(sim.current_kernel(), 1u);
    EXPECT_EQ(EventQueue::kernel_of(sim.schedule_at(at(1_ms), [] {})), 1u);
    {
      KernelScope inner{sim, 3};
      EXPECT_EQ(EventQueue::kernel_of(sim.schedule_after(1_ms, [] {})), 3u);
    }
    EXPECT_EQ(sim.current_kernel(), 1u);
  }
  EXPECT_EQ(sim.current_kernel(), 0u);
  EXPECT_EQ(sim.pending(), 4u);
}

TEST(PartitionedSimTest, EventIdCarriesOwningWheelAcrossCancel) {
  Simulator sim;
  sim.configure_partitions(2, 1);
  bool fired = false;
  EventId id = 0;
  {
    KernelScope scope{sim, 2};
    id = sim.schedule_at(at(5_ms), [&] { fired = true; });
  }
  // The kernel byte routes the cancel to partition 2's wheel even though
  // the ambient kernel is back on the global wheel.
  EXPECT_EQ(EventQueue::kernel_of(id), 2u);
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  sim.run_until(at(10_ms));
  EXPECT_FALSE(fired);
}

TEST(PartitionedSimTest, GlobalFiresBeforePartitionsAtEqualInstants) {
  Simulator sim;
  sim.configure_partitions(2, 1);
  std::vector<std::string> order;

  // All four events share one instant. The ordering rule is fixed:
  // global events at t fire before partition events at t (the partition
  // horizon is exclusive), and partitions commit in index order.
  sim.schedule_on(2, at(2_ms), [&] { order.push_back("p2"); });
  sim.schedule_on(1, at(2_ms), [&] { order.push_back("p1"); });
  sim.schedule_on(0, at(2_ms), [&] { order.push_back("g2"); });
  sim.schedule_on(0, at(2_ms), [&] { order.push_back("g1"); });
  // An earlier partition event still precedes the later global instant.
  sim.schedule_on(2, at(1_ms), [&] { order.push_back("early-p2"); });

  sim.run_until(at(3_ms));
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], "early-p2");
  EXPECT_EQ(order[1], "g2");  // insertion order within the global wheel
  EXPECT_EQ(order[2], "g1");
  EXPECT_EQ(order[3], "p1");  // partition index order after the barrier
  EXPECT_EQ(order[4], "p2");
  EXPECT_EQ(sim.now(), at(3_ms));
}

TEST(PartitionedSimTest, MailboxDrainsInPartitionOrderBeforeGlobalEvents) {
  Simulator sim;
  sim.configure_partitions(2, 1);
  std::vector<std::string> order;

  // Partition batches post upward; the barrier commit drains the posts
  // in partition order, before the next global phase fires -- so both
  // posts precede the global event at the horizon, and partition 1's
  // post runs first even though partition 2's event was scheduled first.
  sim.schedule_on(2, at(1_ms), [&] {
    sim.post_to_global([&] { order.push_back("post-from-p2"); });
  });
  sim.schedule_on(1, at(1_ms), [&] {
    sim.post_to_global([&] {
      order.push_back("post-from-p1");
      // A post may post again (e.g. a drained deposit scheduling a
      // follow-up). The re-post runs in global context, so it lands in
      // the global mailbox and drains in the same commit, after the
      // first full pass -- still before the next global phase.
      sim.post_to_global([&] { order.push_back("repost"); });
    });
  });
  sim.schedule_on(0, at(2_ms), [&] { order.push_back("global"); });

  sim.run_until(at(3_ms));
  const std::vector<std::string> expected{"post-from-p1", "post-from-p2", "repost", "global"};
  EXPECT_EQ(order, expected);
}

TEST(PartitionedSimTest, DownwardInjectionFromGlobalPhase) {
  Simulator sim;
  sim.configure_partitions(2, 1);
  std::vector<std::string> order;

  // The global phase injects into partition wheels directly (the
  // downward mailbox): a frame-delivery shaped round trip.
  sim.schedule_on(0, at(1_ms), [&] {
    order.push_back("global-send");
    sim.schedule_on(1, at(1500_us), [&] { order.push_back("p1-deliver"); });
    sim.schedule_on(2, at(1500_us), [&] { order.push_back("p2-deliver"); });
  });
  sim.schedule_on(0, at(2_ms), [&] { order.push_back("global-next"); });

  sim.run_until(at(3_ms));
  const std::vector<std::string> expected{"global-send", "p1-deliver", "p2-deliver",
                                          "global-next"};
  EXPECT_EQ(order, expected);
}

TEST(PartitionedSimTest, PeriodicTasksStayOnTheirWheel) {
  Simulator sim;
  sim.configure_partitions(2, 1);
  int fires = 0;
  PeriodicTask task;
  {
    KernelScope scope{sim, 1};
    task = sim.schedule_periodic(at(1_ms), 1_ms, [&] { ++fires; });
  }
  sim.run_until(at(3500_us));
  EXPECT_EQ(fires, 3);
  EXPECT_TRUE(task.active());
  // The handle's kernel byte keeps cancel routed to partition 1.
  EXPECT_TRUE(task.cancel());
  sim.run_until(at(10_ms));
  EXPECT_EQ(fires, 3);
}

TEST(PartitionedSimTest, IdenticalScheduleAtAnyWorkerCount) {
  // The same workload must produce the same firing order whether the
  // partition batches run inline or on pool workers.
  auto run = [](std::size_t sim_jobs) {
    Simulator sim;
    sim.configure_partitions(3, sim_jobs);
    std::vector<std::string> order;
    for (std::uint32_t p = 1; p <= 3; ++p) {
      // The partition callback touches only partition-local state (its
      // own mailbox); the shared log is written single-threaded, at the
      // barrier commit and in the global phase.
      sim.schedule_on(p, at(1_ms), [&order, p, &sim] {
        sim.post_to_global([&order, p] { order.push_back("ack" + std::to_string(p)); });
      });
    }
    sim.schedule_on(0, at(2_ms), [&order] { order.push_back("g"); });
    sim.run_until(at(3_ms));
    return order;
  };
  const auto serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(8), serial);
}

TEST(PartitionedSimTest, QueueDepthAggregatesAcrossWheels) {
  // Satellite regression: sim.queue_depth must report the *sum* of
  // pending events across every wheel after a partitioned run step, not
  // one wheel's private depth.
  Simulator sim;
  sim.configure_partitions(2, 1);
  sim.schedule_on(0, at(1_ms), [] {});
  sim.schedule_on(1, at(1_ms), [] {});
  sim.schedule_on(1, at(10_ms), [] {});
  sim.schedule_on(2, at(10_ms), [] {});
  sim.schedule_on(0, at(10_ms), [] {});

  sim.run_until(at(2_ms));
  EXPECT_EQ(sim.pending(), 3u);
  const auto snapshot = sim.metrics().snapshot();
  const auto* depth = snapshot.find("sim.queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->value, 3);

  sim.run_until(at(20_ms));
  const auto after = sim.metrics().snapshot();
  const auto* drained = after.find("sim.queue_depth");
  ASSERT_NE(drained, nullptr);
  EXPECT_EQ(drained->value, 0);
}

TEST(PartitionedSimTest, PastClampsAggregateAcrossWheels) {
  // Satellite regression: clamps recorded inside partition batches are
  // deferred and published at the barrier; the counter must equal the
  // across-wheels total, identically at any worker count.
  auto clamps = [](std::size_t sim_jobs) {
    Simulator sim;
    sim.configure_partitions(2, sim_jobs);
    for (std::uint32_t p = 1; p <= 2; ++p) {
      sim.schedule_on(p, at(2_ms), [&sim] {
        // Target in the past: clamps to now inside the partition batch.
        sim.schedule_at(at(1_ms), [] {});
      });
    }
    sim.schedule_on(0, at(2_ms), [&sim] { sim.schedule_at(at(1_ms), [] {}); });
    sim.run_until(at(5_ms));
    const auto snapshot = sim.metrics().snapshot();
    const auto* counter = snapshot.find("sim.schedule_past_clamped");
    EXPECT_NE(counter, nullptr);
    EXPECT_EQ(sim.past_clamps(), 3u);
    return counter == nullptr ? -1 : static_cast<int>(counter->value);
  };
  EXPECT_EQ(clamps(1), 3);
  EXPECT_EQ(clamps(4), 3);
}

TEST(PartitionedSimTest, DispatchedCountsEveryWheel) {
  Simulator sim;
  sim.configure_partitions(2, 2);
  std::atomic<int> fired{0};  // partition batches run on pool workers
  for (std::uint32_t k = 0; k <= 2; ++k)
    for (int i = 0; i < 4; ++i)
      sim.schedule_on(k, at(Duration::milliseconds(1 + i)), [&] { ++fired; });
  sim.run_until(at(10_ms));
  EXPECT_EQ(fired.load(), 12);
  EXPECT_EQ(sim.dispatched(), 12u);
  const auto snapshot = sim.metrics().snapshot();
  const auto* events = snapshot.find("sim.events_dispatched");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->value, 12);
}

}  // namespace
}  // namespace decos::sim
