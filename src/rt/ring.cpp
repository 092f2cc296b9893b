#include "rt/ring.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <new>

namespace decos::rt {

SpscRing::SpscRing(std::size_t capacity_bytes) {
  const std::size_t capacity = round_capacity(capacity_bytes);
  owned_ = std::make_unique<std::byte[]>(region_size(capacity));
  header_ = new (owned_.get()) RingHeader{};
  header_->magic = kMagic;
  header_->version = kVersion;
  header_->capacity = capacity;
  data_ = owned_.get() + sizeof(RingHeader);
  capacity_ = capacity;
  run_limit_ = capacity;
}

SpscRing::SpscRing(void* region, std::size_t region_bytes, bool init) {
  if (region == nullptr || region_bytes <= sizeof(RingHeader)) return;
  const std::size_t capacity = region_bytes - sizeof(RingHeader);
  if ((capacity & (capacity - 1)) != 0 || capacity < kMinCapacity) return;
  if (init) {
    header_ = new (region) RingHeader{};
    header_->magic = kMagic;
    header_->version = kVersion;
    header_->capacity = capacity;
  } else {
    auto* header = static_cast<RingHeader*>(region);
    if (header->magic != kMagic || header->version != kVersion || header->capacity != capacity)
      return;
    header_ = header;
  }
  data_ = static_cast<std::byte*>(region) + sizeof(RingHeader);
  capacity_ = capacity;
  run_limit_ = capacity;
}

bool SpscRing::try_push(std::span<const std::byte> payload) {
  const std::size_t need = framed_size(payload.size());
  if (payload.size() > max_payload()) {
    header_->drops.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const std::uint64_t head = header_->head.load(std::memory_order_acquire);
  const std::uint64_t tail = header_->tail.load(std::memory_order_relaxed);
  const std::size_t offset = static_cast<std::size_t>(tail & (capacity_ - 1));
  const std::size_t contiguous = capacity_ - offset;
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());

  std::uint64_t end;
  std::byte* slot;
  if (need <= contiguous) {
    if (tail + need - head > capacity_) {
      header_->drops.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    slot = data_ + offset;
    end = tail + need;
  } else {
    // Frame does not fit before the wrap: mark the gap, start at 0.
    // Offsets are frame-aligned, so `contiguous` >= kFrameAlign and the
    // 4-byte marker always fits.
    if (tail + contiguous + need - head > capacity_) {
      header_->drops.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const std::uint32_t marker = kWrapMarker;
    std::memcpy(data_ + offset, &marker, sizeof(marker));
    slot = data_;
    end = tail + contiguous + need;
  }
  std::memcpy(slot, &len, sizeof(len));
  if (!payload.empty()) std::memcpy(slot + sizeof(len), payload.data(), payload.size());
  header_->tail.store(end, std::memory_order_release);
  return true;
}

// -- ShmRing ----------------------------------------------------------------

ShmRing::ShmRing(std::string name, void* region, std::size_t region_bytes, bool creator)
    : name_{std::move(name)},
      region_{region},
      region_bytes_{region_bytes},
      creator_{creator},
      ring_{region, region_bytes, creator} {}

Result<ShmRing> ShmRing::create(const std::string& name, std::size_t capacity_bytes) {
  const std::size_t capacity = round_capacity(capacity_bytes);
  const std::size_t bytes = SpscRing::region_size(capacity);
  // A stale object from a crashed run must not leak its cursors into
  // this one: recreate from scratch.
  ::shm_unlink(name.c_str());
  const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0)
    return Result<ShmRing>::failure("shm_open(" + name + "): " + std::strerror(errno));
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    ::shm_unlink(name.c_str());
    return Result<ShmRing>::failure("ftruncate(" + name + "): " + err);
  }
  void* region = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (region == MAP_FAILED)
    return Result<ShmRing>::failure("mmap(" + name + "): " + std::strerror(errno));
  return ShmRing{name, region, bytes, /*creator=*/true};
}

Result<ShmRing> ShmRing::open(const std::string& name) {
  const int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
  if (fd < 0)
    return Result<ShmRing>::failure("shm_open(" + name + "): " + std::strerror(errno));
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size <= static_cast<off_t>(sizeof(RingHeader))) {
    ::close(fd);
    return Result<ShmRing>::failure("shm object " + name + " has no ring layout");
  }
  const std::size_t bytes = static_cast<std::size_t>(st.st_size);
  void* region = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (region == MAP_FAILED)
    return Result<ShmRing>::failure("mmap(" + name + "): " + std::strerror(errno));
  ShmRing ring{name, region, bytes, /*creator=*/false};
  if (!ring.ring().valid())
    return Result<ShmRing>::failure("shm object " + name + " is not a decos ring (bad magic/size)");
  return ring;
}

void ShmRing::move_from(ShmRing& o) {
  name_ = std::move(o.name_);
  region_ = o.region_;
  region_bytes_ = o.region_bytes_;
  creator_ = o.creator_;
  ring_ = std::move(o.ring_);
  o.region_ = nullptr;
  o.region_bytes_ = 0;
  o.creator_ = false;
}

void ShmRing::release() {
  if (region_ != nullptr) ::munmap(region_, region_bytes_);
  if (creator_ && !name_.empty()) ::shm_unlink(name_.c_str());
  region_ = nullptr;
  creator_ = false;
}

}  // namespace decos::rt
