// Transport endpoints for the live gateway runtime (S30).
//
// An Endpoint is one side's byte-frame attachment point: the runtime
// drains ingress frames from it in batches and pushes egress frames into
// it. Two transports implement the interface -- SPSC shared-memory rings
// (RingEndpoint, in-process or cross-process via ShmRing) and
// non-blocking UDP sockets (UdpEndpoint, udp.hpp). Both are non-blocking
// on both directions; a transmit that cannot complete counts tx_dropped
// instead of stalling the gateway loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "rt/ring.hpp"

namespace decos::rt {

/// Receiver of drained ingress frames. A virtual interface (not
/// std::function) so per-frame delivery stays allocation-free.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  /// `payload` aliases transport storage; valid only during the call.
  virtual void on_frame(std::span<const std::byte> payload) = 0;
};

struct EndpointStats {
  std::uint64_t rx_frames = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_frames = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t tx_dropped = 0;  // egress backpressure (ring full / EWOULDBLOCK)
};

class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Drain up to `max_frames` pending ingress frames into `sink`.
  /// Returns the number delivered (0 = nothing pending).
  virtual std::size_t poll(FrameSink& sink, std::size_t max_frames) = 0;

  /// Transmit one egress frame. False = transport backpressure; the
  /// frame is dropped and counted (the runtime's egress policy).
  virtual bool send(std::span<const std::byte> payload) = 0;

  /// Ingress frames queued but not yet drained (best effort; rings
  /// report bytes-derived estimates, sockets report 0).
  virtual std::size_t backlog() const { return 0; }

  /// True once the ingress transport stopped delivering for good because
  /// its contents failed validation (a quarantined ring).
  virtual bool rx_quarantined() const { return false; }

  virtual const char* kind() const = 0;

  const EndpointStats& stats() const { return stats_; }

 protected:
  EndpointStats stats_;
};

/// Endpoint over a pair of SPSC rings: `rx` carries peer->gateway
/// frames (the runtime is the consumer), `tx` carries gateway->peer
/// frames (the runtime is the producer). The rings are borrowed -- the
/// bench owns in-process rings, decogw owns ShmRing mappings.
class RingEndpoint final : public Endpoint {
 public:
  RingEndpoint(SpscRing& rx, SpscRing& tx) : rx_{&rx}, tx_{&tx} {}

  std::size_t poll(FrameSink& sink, std::size_t max_frames) override {
    const std::size_t n = rx_->consume(max_frames, [&](std::span<const std::byte> payload) {
      stats_.rx_bytes += payload.size();
      sink.on_frame(payload);
    });
    stats_.rx_frames += n;
    return n;
  }

  bool send(std::span<const std::byte> payload) override {
    if (!tx_->try_push(payload)) {
      ++stats_.tx_dropped;
      return false;
    }
    ++stats_.tx_frames;
    stats_.tx_bytes += payload.size();
    return true;
  }

  std::size_t backlog() const override { return rx_->readable_bytes(); }
  bool rx_quarantined() const override { return rx_->quarantined(); }
  const char* kind() const override { return "ring"; }

  SpscRing& rx() { return *rx_; }
  SpscRing& tx() { return *tx_; }

 private:
  SpscRing* rx_;
  SpscRing* tx_;
};

}  // namespace decos::rt
