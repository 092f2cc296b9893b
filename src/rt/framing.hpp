// Frame arithmetic of the SPSC byte ring (rt/ring.hpp), header-only so
// the deployment linter (lint/) can judge ring capacities exactly as the
// runtime builds and enforces them without linking the runtime.
#pragma once

#include <cstddef>
#include <cstdint>

namespace decos::rt {

/// Frames start on this alignment in the ring.
inline constexpr std::size_t kFrameAlign = 8;
/// Smallest ring the runtime builds.
inline constexpr std::size_t kMinCapacity = 4096;

/// Bytes a frame of `payload` bytes occupies in the ring (length prefix
/// + payload, rounded up to the frame alignment).
constexpr std::size_t framed_size(std::size_t payload) {
  return (sizeof(std::uint32_t) + payload + (kFrameAlign - 1)) & ~(kFrameAlign - 1);
}

/// Largest single payload a ring of `capacity` bytes accepts (a frame
/// must leave room for a wrap marker and must never be able to deadlock
/// the ring).
constexpr std::size_t max_payload(std::size_t capacity) { return capacity / 4; }

/// The capacity the runtime builds for a request of `bytes`: the
/// smallest power of two >= `bytes` and >= kMinCapacity.
constexpr std::size_t round_capacity(std::size_t bytes) {
  std::size_t cap = kMinCapacity;
  while (cap < bytes) cap <<= 1;
  return cap;
}

}  // namespace decos::rt
