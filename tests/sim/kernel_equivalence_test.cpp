// Property test: the production kernel (timer wheel + pooled typed
// nodes, sim/event_queue.hpp) must dispatch exactly like the reference
// kernel it replaced (binary heap + unordered_map, preserved verbatim in
// tests/oracle/reference_kernel.hpp). Randomized schedules drive both in
// lockstep -- one-shots, same-instant ties, cancels (including from
// inside handlers), nested scheduling and self-timed chains -- across
// wheel resolutions from 1 ns to 1 ms (events land in the same bucket at
// coarse resolutions, in distinct buckets at fine ones; the dispatch
// *order* must never depend on that).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "../oracle/reference_kernel.hpp"
#include "sim/simulator.hpp"

namespace decos::sim {
namespace {

using namespace decos::literals;

/// Deterministic xorshift RNG (no std::random_device: runs must be
/// reproducible from the seed printed on failure).
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

struct FireLog {
  std::vector<std::uint64_t> fired;   // event tag in dispatch order
  std::vector<std::int64_t> at_ns;    // dispatch instant per firing
  std::vector<bool> cancel_results;   // result of every cancel() call

  bool operator==(const FireLog& o) const = default;
};

/// The scenario is expressed once against an abstract "kernel ops"
/// interface so one generator drives both kernels; ops are derived from
/// the RNG stream only, so both see the same schedule and the logs must
/// come out identical.
struct KernelOps {
  std::function<std::uint64_t(Duration, std::function<void()>)> schedule_after;
  std::function<bool(std::uint64_t)> cancel;
  std::function<void(Instant)> run_until;
  std::function<Instant()> now;
  std::function<std::size_t()> pending;
};

FireLog drive(const KernelOps& k, std::uint64_t seed, int ops) {
  Rng rng{seed};
  FireLog log;
  std::vector<std::uint64_t> ids;      // kernel event ids by slot
  std::vector<std::uint64_t> tags;     // scenario tag by slot
  std::uint64_t next_tag = 0;

  for (int op = 0; op < ops; ++op) {
    const std::uint64_t kind = rng.below(100);
    if (kind < 50) {
      // Schedule a one-shot; delays repeat often to force ties.
      const std::uint64_t tag = next_tag++;
      const Duration delay = Duration::microseconds(static_cast<std::int64_t>(rng.below(30)));
      const std::uint64_t style = rng.below(4);
      const std::uint64_t nested_seed = rng.next();
      ids.push_back(k.schedule_after(delay, [&k, &log, &ids, &tags, tag, style, nested_seed] {
        log.fired.push_back(tag);
        log.at_ns.push_back((k.now() - Instant::origin()).ns());
        if (style == 1) {
          // Nested schedule from inside a handler (including zero delay:
          // fires later the same instant, FIFO).
          Rng r{nested_seed | 1};
          const std::uint64_t inner = 1000000 + tag;
          k.schedule_after(Duration::microseconds(static_cast<std::int64_t>(r.below(10))),
                           [&k, &log, inner] {
                             log.fired.push_back(inner);
                             log.at_ns.push_back((k.now() - Instant::origin()).ns());
                           });
        } else if (style == 2 && !ids.empty()) {
          // Cancel some other pending event from inside a handler.
          Rng r{nested_seed | 1};
          const std::size_t victim = r.below(ids.size());
          log.cancel_results.push_back(k.cancel(ids[victim]));
        }
      }));
      tags.push_back(tag);
    } else if (kind < 65 && !ids.empty()) {
      // Cancel a random slot (often already fired: result must agree).
      const std::size_t victim = rng.below(ids.size());
      log.cancel_results.push_back(k.cancel(ids[victim]));
    } else if (kind < 80) {
      // Advance time a little (drains due events).
      k.run_until(k.now() + Duration::microseconds(static_cast<std::int64_t>(rng.below(25))));
    } else if (kind < 90) {
      // Same-instant burst: N events at one future instant.
      const Duration delay = Duration::microseconds(static_cast<std::int64_t>(rng.below(20)));
      const std::uint64_t n = 2 + rng.below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t tag = next_tag++;
        ids.push_back(k.schedule_after(delay, [&k, &log, tag] {
          log.fired.push_back(tag);
          log.at_ns.push_back((k.now() - Instant::origin()).ns());
        }));
        tags.push_back(tag);
      }
    } else {
      // Far-future one-shot (overflow heap on the wheel kernel).
      const std::uint64_t tag = next_tag++;
      const Duration delay =
          Duration::seconds(1) + Duration::milliseconds(static_cast<std::int64_t>(rng.below(5000)));
      ids.push_back(k.schedule_after(delay, [&k, &log, tag] {
        log.fired.push_back(tag);
        log.at_ns.push_back((k.now() - Instant::origin()).ns());
      }));
      tags.push_back(tag);
    }
  }
  // Drain everything, including the far-future tail.
  k.run_until(k.now() + Duration::seconds(10));
  EXPECT_EQ(k.pending(), 0u);
  return log;
}

KernelOps ops_of(Simulator& s) {
  return KernelOps{
      [&s](Duration d, std::function<void()> f) { return s.schedule_after(d, std::move(f)); },
      [&s](std::uint64_t id) { return s.cancel(id); },
      [&s](Instant t) { s.run_until(t); },
      [&s] { return s.now(); },
      [&s] { return s.pending(); },
  };
}

KernelOps ops_of(ReferenceKernel& s) {
  return KernelOps{
      [&s](Duration d, std::function<void()> f) { return s.schedule_after(d, std::move(f)); },
      [&s](std::uint64_t id) { return s.cancel(id); },
      [&s](Instant t) { s.run_until(t); },
      [&s] { return s.now(); },
      [&s] { return s.pending(); },
  };
}

TEST(KernelEquivalence, RandomizedSchedulesMatchReferenceAcrossResolutions) {
  const std::vector<Duration> resolutions = {Duration::nanoseconds(1), Duration::microseconds(1),
                                             Duration::milliseconds(1)};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    ReferenceKernel reference;
    KernelOps ref_ops = ops_of(reference);
    const FireLog expected = drive(ref_ops, seed * 0x9e3779b97f4a7c15ULL, 120);
    ASSERT_FALSE(expected.fired.empty()) << "seed " << seed << " scheduled nothing";

    for (const Duration resolution : resolutions) {
      Simulator wheel;
      wheel.set_tick_resolution(resolution);
      KernelOps wheel_ops = ops_of(wheel);
      const FireLog got = drive(wheel_ops, seed * 0x9e3779b97f4a7c15ULL, 120);
      ASSERT_EQ(got, expected) << "kernel diverged from reference model at seed " << seed
                               << ", resolution " << resolution.ns() << "ns";
      ASSERT_EQ(wheel.dispatched(), reference.dispatched()) << "seed " << seed;
    }
  }
}

// PeriodicTask has no reference-kernel counterpart; its contract is
// pinned directly: a fixed-period task fires at exact multiples, the
// next occurrence is already pending during the callback, and the
// self-timed flavour follows reschedule_at exactly.
TEST(KernelEquivalence, PeriodicTaskMatchesSelfChainingOneShots) {
  // Model: the old idiom (handler re-schedules itself first thing).
  ReferenceKernel reference;
  std::vector<std::int64_t> expected;
  std::function<void()> chain = [&] {
    reference.schedule_at(reference.now() + 7_ms, chain);
    expected.push_back((reference.now() - Instant::origin()).ns());
  };
  reference.schedule_at(Instant::origin() + 3_ms, chain);
  reference.run_until(Instant::origin() + 200_ms);

  Simulator wheel;
  std::vector<std::int64_t> got;
  PeriodicTask task = wheel.schedule_periodic(
      Instant::origin() + 3_ms, 7_ms,
      [&wheel, &got] { got.push_back((wheel.now() - Instant::origin()).ns()); });
  wheel.run_until(Instant::origin() + 200_ms);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(expected.size(), 29u);  // fires at 3ms + 7ms*k for k = 0..28
  EXPECT_TRUE(task.active());
  EXPECT_EQ(task.next_fire() - Instant::origin(), 3_ms + 7_ms * 29);
}

}  // namespace
}  // namespace decos::sim
