// SPSC ring unit tests: frame round trips, wrap-around via the marker
// path, full/empty boundaries, run-length claim limits, and the ShmRing
// create/open lifecycle.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "rt/ring.hpp"

namespace decos::rt {
namespace {

std::vector<std::byte> frame_of(std::size_t size, std::uint8_t fill) {
  return std::vector<std::byte>(size, std::byte{fill});
}

std::vector<std::vector<std::byte>> drain(SpscRing& ring, std::size_t max = 1024) {
  std::vector<std::vector<std::byte>> frames;
  ring.consume(max, [&](std::span<const std::byte> payload) {
    frames.emplace_back(payload.begin(), payload.end());
  });
  return frames;
}

TEST(SpscRing, RoundTripsFramesInOrder) {
  SpscRing ring{4096};
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(ring.try_push(frame_of(10, 0xaa)));
  EXPECT_TRUE(ring.try_push(frame_of(1, 0xbb)));
  EXPECT_TRUE(ring.try_push(frame_of(333, 0xcc)));
  EXPECT_FALSE(ring.empty());

  const auto frames = drain(ring);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], frame_of(10, 0xaa));
  EXPECT_EQ(frames[1], frame_of(1, 0xbb));
  EXPECT_EQ(frames[2], frame_of(333, 0xcc));
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.drops(), 0u);
}

TEST(SpscRing, EmptyConsumeDeliversNothing) {
  SpscRing ring{4096};
  EXPECT_EQ(drain(ring).size(), 0u);
}

TEST(SpscRing, ZeroLengthFramesAreFrames) {
  SpscRing ring{4096};
  EXPECT_TRUE(ring.try_push({}));
  EXPECT_TRUE(ring.try_push(frame_of(5, 0x11)));
  const auto frames = drain(ring);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_TRUE(frames[0].empty());
  EXPECT_EQ(frames[1].size(), 5u);
}

TEST(SpscRing, WrapAroundPreservesFrames) {
  // Frame sizes chosen so the cursor repeatedly lands near the end of
  // the 4 KiB data area and the wrap-marker path runs many times.
  SpscRing ring{4096};
  std::uint8_t fill = 0;
  for (int round = 0; round < 200; ++round) {
    const std::size_t size = 100 + (round * 37) % 500;
    ASSERT_TRUE(ring.try_push(frame_of(size, fill))) << "round " << round;
    const auto frames = drain(ring);
    ASSERT_EQ(frames.size(), 1u) << "round " << round;
    EXPECT_EQ(frames[0], frame_of(size, fill)) << "round " << round;
    ++fill;
  }
  EXPECT_EQ(ring.drops(), 0u);
}

TEST(SpscRing, FullRingDropsAndCounts) {
  SpscRing ring{4096};
  std::size_t pushed = 0;
  while (ring.try_push(frame_of(500, 0x42))) ++pushed;
  EXPECT_GT(pushed, 0u);
  EXPECT_EQ(ring.drops(), 1u);
  EXPECT_FALSE(ring.try_push(frame_of(500, 0x42)));
  EXPECT_EQ(ring.drops(), 2u);

  // Draining frees the space again.
  EXPECT_EQ(drain(ring).size(), pushed);
  EXPECT_TRUE(ring.try_push(frame_of(500, 0x43)));
}

TEST(SpscRing, OversizePayloadRejected) {
  SpscRing ring{4096};
  EXPECT_FALSE(ring.try_push(frame_of(ring.max_payload() + 1, 0x01)));
  EXPECT_EQ(ring.drops(), 1u);
  EXPECT_TRUE(ring.try_push(frame_of(ring.max_payload(), 0x02)));
}

TEST(SpscRing, ConsumeHonorsMaxFrames) {
  SpscRing ring{8192};
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(ring.try_push(frame_of(16, 0x55)));
  std::size_t seen = 0;
  EXPECT_EQ(ring.consume(3, [&](std::span<const std::byte>) { ++seen; }), 3u);
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(drain(ring).size(), 7u);
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(round_capacity(1), kMinCapacity);
  EXPECT_EQ(round_capacity(4096), 4096u);
  EXPECT_EQ(round_capacity(4097), 8192u);
  EXPECT_EQ(round_capacity(1 << 20), std::size_t{1} << 20);
}

// -- corrupted shared memory: the consumer must neither read out of
// bounds nor trust the cursors; a bad ring is quarantined for good. --

/// A ring over a caller-owned region, so a test can scribble on the
/// shared bytes the way a faulty or hostile producer process could.
struct ExposedRing {
  static constexpr std::size_t kCapacity = 4096;
  std::vector<std::byte> region = std::vector<std::byte>(SpscRing::region_size(kCapacity));
  SpscRing ring{region.data(), region.size(), /*init=*/true};
  RingHeader& header() { return *reinterpret_cast<RingHeader*>(region.data()); }
  std::byte* data() { return region.data() + sizeof(RingHeader); }
  void set_len(std::size_t offset, std::uint32_t len) {
    std::memcpy(data() + offset, &len, sizeof(len));
  }
};

TEST(SpscRingQuarantine, OversizeLengthPrefixStopsBeforeTheFrame) {
  ExposedRing r;
  ASSERT_TRUE(r.ring.try_push(frame_of(16, 0x01)));
  ASSERT_TRUE(r.ring.try_push(frame_of(16, 0x02)));
  r.set_len(framed_size(16), static_cast<std::uint32_t>(r.ring.max_payload() + 1));
  const auto frames = drain(r.ring);
  ASSERT_EQ(frames.size(), 1u) << "the intact frame before the corruption is delivered";
  EXPECT_EQ(frames[0], frame_of(16, 0x01));
  EXPECT_TRUE(r.ring.quarantined());
  // Quarantine is for good: later, valid frames are not read either.
  ASSERT_TRUE(r.ring.try_push(frame_of(8, 0x03)));
  EXPECT_EQ(drain(r.ring).size(), 0u);
}

TEST(SpscRingQuarantine, LengthPastThePublishedRunIsRejected) {
  ExposedRing r;
  ASSERT_TRUE(r.ring.try_push(frame_of(16, 0x01)));
  r.set_len(0, 200);  // within max_payload, but only 24 bytes are published
  EXPECT_EQ(drain(r.ring).size(), 0u);
  EXPECT_TRUE(r.ring.quarantined());
}

TEST(SpscRingQuarantine, FrameRunningPastTheDataAreaIsRejected) {
  ExposedRing r;
  // Cursors near the end of the data area, a frame whose length would
  // read past it (the producer always wraps such a frame).
  const std::uint64_t start = 10 * ExposedRing::kCapacity - 64;
  r.header().head.store(start);
  r.header().tail.store(start + 512);
  r.set_len(ExposedRing::kCapacity - 64, 400);
  EXPECT_EQ(drain(r.ring).size(), 0u);
  EXPECT_TRUE(r.ring.quarantined());
}

TEST(SpscRingQuarantine, CorruptCursorsAreRejected) {
  {
    ExposedRing r;  // tail claims more than the whole ring
    r.header().tail.store(ExposedRing::kCapacity + 8);
    EXPECT_EQ(drain(r.ring).size(), 0u);
    EXPECT_TRUE(r.ring.quarantined());
  }
  {
    ExposedRing r;  // tail behind head (unsigned run wraps around)
    r.header().head.store(64);
    r.header().tail.store(8);
    EXPECT_EQ(drain(r.ring).size(), 0u);
    EXPECT_TRUE(r.ring.quarantined());
  }
  {
    ExposedRing r;  // misaligned head
    ASSERT_TRUE(r.ring.try_push(frame_of(16, 0x01)));
    r.header().head.store(3);
    EXPECT_EQ(drain(r.ring).size(), 0u);
    EXPECT_TRUE(r.ring.quarantined());
  }
  {
    ExposedRing r;  // a wrap marker whose gap exceeds the published run
    r.header().tail.store(16);
    r.set_len(0, SpscRing::kWrapMarker);
    EXPECT_EQ(drain(r.ring).size(), 0u);
    EXPECT_TRUE(r.ring.quarantined());
  }
}

TEST(SpscRingQuarantine, IntactTrafficThroughWrapsNeverQuarantines) {
  ExposedRing r;
  for (int round = 0; round < 300; ++round) {
    ASSERT_TRUE(r.ring.try_push(frame_of(100 + (round * 37) % 900, 0x5a)));
    ASSERT_EQ(drain(r.ring).size(), 1u) << "round " << round;
  }
  EXPECT_FALSE(r.ring.quarantined());
}

TEST(ShmRing, CreateOpenRoundTrip) {
  const std::string name = "/decos_rt_ring_test_" + std::to_string(::getpid());
  auto created = ShmRing::create(name, 8192);
  ASSERT_TRUE(created.ok()) << created.error().to_string();
  auto opened = ShmRing::open(name);
  ASSERT_TRUE(opened.ok()) << opened.error().to_string();

  // Producer through the creator's mapping, consumer through the
  // opener's: the cursors live in the shared region.
  ASSERT_TRUE(created.value().ring().try_push(frame_of(64, 0x7e)));
  const auto frames = drain(opened.value().ring());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], frame_of(64, 0x7e));
}

TEST(ShmRing, OpenMissingObjectFails) {
  auto opened = ShmRing::open("/decos_rt_ring_never_created");
  EXPECT_FALSE(opened.ok());
}

TEST(ShmRing, CreatorUnlinksOnDestruction) {
  const std::string name = "/decos_rt_ring_unlink_" + std::to_string(::getpid());
  {
    auto created = ShmRing::create(name, 4096);
    ASSERT_TRUE(created.ok()) << created.error().to_string();
  }
  EXPECT_FALSE(ShmRing::open(name).ok());
}

}  // namespace
}  // namespace decos::rt
