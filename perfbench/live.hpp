// The live workloads: a generator thread feeds the rt::GatewayRuntime over
// in-process SPSC rings (as E22 and decogw's shm transport do) and checks
// every egress frame.
//
//   relay_small  E22's gateway: one event-push flow, smallest message
//                (2-byte key, int32, timestamp), no filter.
//   fanin_wide   64 keyed flows shaped like examples/specs/yaw_gateway.xml
//                (key, convertible element, value filter, interarrival
//                automaton), each widened to twelve fields of mixed types,
//                sent in a seeded interleaving with 1-in-32 designed
//                rejects (half unknown key, half out-of-range value).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/virtual_gateway.hpp"
#include "report.hpp"
#include "spec/message.hpp"
#include "spec/message_spec.hpp"

namespace perfbench {

enum class LiveKind { kRelaySmall, kFaninWide };

/// A gateway of one live workload plus the message specs the generator
/// encodes and verifies with (owned by the gateway, except `unknown`).
struct LiveGateway {
  std::unique_ptr<decos::core::VirtualGateway> gateway;
  std::vector<const decos::spec::MessageSpec*> in;   // side A ingress, one per flow
  std::vector<const decos::spec::MessageSpec*> out;  // side B egress, one per flow
  std::optional<decos::spec::MessageSpec> unknown;   // well-formed, matches no flow
};
LiveGateway build_live_gateway(LiveKind kind);

/// E22's and E21's message: 2-byte key `id`, one convertible element
/// {int32 value, timestamp t}.
decos::spec::MessageSpec state_message(const std::string& name, const std::string& element,
                                       int id);

enum class SlotKind : std::uint8_t { kValid, kUnknownKey, kOutOfRange };
struct Slot {
  std::uint16_t flow = 0;
  SlotKind kind = SlotKind::kValid;
};

/// The seeded send order the generator cycles through.
std::vector<Slot> make_schedule(LiveKind kind, std::uint64_t seed);

/// Generator-side spec::encode_into / decode_into cost per frame.
struct CodecCost {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
};

/// Encodes generator frames and verifies egress frames. Every field value
/// is a function of (flow, seq, seed), so a corrupted frame is caught.
class FrameCodec {
 public:
  FrameCodec(LiveKind kind, const LiveGateway& gateway, std::uint64_t seed);

  /// Encode the frame for `slot` carrying sequence number `seq` and
  /// timestamp `t_ns` into `out`.
  void encode(const Slot& slot, std::uint32_t seq, std::int64_t t_ns, std::vector<std::byte>& out);

  /// Verify one egress frame. `hint` is the flow expected next (tried
  /// first). On success returns true and sets `flow`, `seq` and `t_ns`;
  /// a frame that matches no flow, fails to decode or carries a wrong
  /// value returns false.
  bool verify(std::span<const std::byte> payload, std::size_t hint, std::size_t& flow,
              std::uint32_t& seq, std::int64_t& t_ns);

  std::size_t flows() const { return out_.size(); }

  /// Time `iterations` encode_into and decode_into calls on the
  /// workload's ingress specs, round-robin over its flows.
  CodecCost time_codec(std::size_t iterations);

 private:
  void fill(decos::spec::MessageInstance& inst, std::size_t flow, std::uint32_t seq,
            std::int64_t t_ns, bool out_of_range) const;
  bool fields_match(const decos::spec::MessageInstance& inst, std::size_t flow,
                    std::uint32_t& seq) const;

  LiveKind kind_;
  std::uint32_t base_;  // seeded offset of relay_small's value field
  std::vector<const decos::spec::MessageSpec*> in_;
  std::vector<const decos::spec::MessageSpec*> out_;
  const decos::spec::MessageSpec* unknown_ = nullptr;
  std::vector<decos::spec::MessageInstance> in_inst_;
  std::vector<decos::spec::MessageInstance> out_inst_;
  std::optional<decos::spec::MessageInstance> unknown_inst_;
};

struct LiveConfig {
  LiveKind kind = LiveKind::kRelaySmall;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::vector<int> cores;  // allowed cores; each trial pins to its best pair
  std::string trace_dir;  // where the traced run writes its spans
};

/// One benchmark run of a live workload: end-to-end metrics untraced,
/// per-layer metrics traced. The run is a series of trials; each picks the
/// allowed core pair with the fastest cache-line round trip, runs the
/// generator and the busy-polling runtime there, and measures one
/// open-loop and one closed-loop window.
Report run_live(const LiveConfig& config);

}  // namespace perfbench
