#include "live.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "core/gateway_xml.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "rt/clock.hpp"
#include "rt/endpoint.hpp"
#include "rt/gateway_runtime.hpp"
#include "rt/ring.hpp"
#include "spec/link_spec.hpp"
#include "spec/linkspec_xml.hpp"

namespace perfbench {

using namespace decos;

namespace {

// Open-loop rates: fanin_wide's is about a fifth of its closed-loop
// saturation throughput on the reference host (~400 000 frames/s).
constexpr double kRelayRateFps = 200'000.0;
constexpr double kFaninRateFps = 75'000.0;
constexpr std::size_t kFaninFlows = 64;
constexpr std::size_t kRejectPeriod = 32;    // one designed reject per 32 frames
constexpr std::size_t kScheduleBlocks = 256; // fanin_wide schedule: 256 shuffled rounds of 64
constexpr std::int64_t kVmax = 10000;        // fanin_wide filter: -vmax <= v <= vmax
constexpr std::size_t kRingBytes = 1 << 20;  // decogw's default ring capacity
constexpr std::size_t kClosedWindow = 256;   // closed loop: frames in flight
constexpr std::size_t kDrainBurst = 256;     // egress frames drained per generator pass
constexpr std::size_t kPushBurst = 64;       // open loop: catch-up frames per pass
constexpr std::uint64_t kSampleEvery = 1024; // traced: every 1024th frame carries a full span chain
constexpr std::int64_t kWindowNs = 250'000'000;  // one open and one closed window per trial
constexpr std::int64_t kWarmupNs = 50'000'000;    // closed loop, discarded, at each trial start
constexpr std::size_t kMinValidTrials = 8;
constexpr int kSetupReps = 51;
// Cores whose cache-line round trip exceeds this do not share a cache;
// trials on them are discarded (measured: ~100 ns shared, ~520 ns not).
constexpr double kSharedCacheRttNs = 250.0;
// Reconciliation tolerances of the traced run: the sampled polls against
// all polls, and rt.poll per frame as a share of 1/throughput_fps (the
// remainder is the runtime loop outside Endpoint::poll).
constexpr double kPollTolerance = 0.25;
constexpr double kMinPollShareOfLoop = 0.5;
constexpr double kMaxPollShareOfLoop = 1.1;
// A fixed-rate window whose generator ran later than this at p99 is
// invalid: its latencies would measure the generator, not the gateway.
constexpr std::int64_t kMaxLatenessNs = 20'000;
// A closed-loop window whose runtime found its ring empty on more than
// this share of polls is invalid: the generator was being measured.
constexpr double kMaxClosedIdleShare = 0.5;

// ---------------------------------------------------------------------------
// Gateways
// ---------------------------------------------------------------------------

LiveGateway relay_gateway() {
  const Duration forever = Duration::seconds(3600);
  spec::LinkSpec link_a{"dasA"};
  link_a.add_message(state_message("msgA", "image", 1));
  spec::PortSpec in;
  in.message = "msgA";
  in.direction = spec::DataDirection::kInput;
  in.semantics = spec::InfoSemantics::kEvent;
  in.paradigm = spec::ControlParadigm::kEventTriggered;
  in.interaction = spec::Interaction::kPush;
  in.period = Duration::milliseconds(10);
  in.max_interarrival = forever;
  in.queue_capacity = 256;
  link_a.add_port(in);

  spec::LinkSpec link_b{"dasB"};
  link_b.add_message(state_message("msgB", "image", 2));
  spec::PortSpec out;
  out.message = "msgB";
  out.direction = spec::DataDirection::kOutput;
  out.semantics = spec::InfoSemantics::kEvent;
  out.paradigm = spec::ControlParadigm::kEventTriggered;
  out.queue_capacity = 256;
  link_b.add_port(out);

  core::GatewayConfig config;
  config.default_d_acc = forever;
  config.dispatch_period = Duration::milliseconds(1);
  config.default_queue_capacity = 256;
  LiveGateway live;
  live.gateway = std::make_unique<core::VirtualGateway>("relay", std::move(link_a),
                                                        std::move(link_b), config);
  live.gateway->set_element_config("image", spec::InfoSemantics::kEvent, forever, 256);
  live.gateway->finalize();
  live.in.push_back(live.gateway->link_a().spec().message("msgA"));
  live.out.push_back(live.gateway->link_b().spec().message("msgB"));
  return live;
}

/// One fanin_wide message: key element plus a convertible element of
/// twelve fields of mixed types.
std::string wide_message_xml(const std::string& name, int key, const std::string& element) {
  std::string xml = "<message name=\"" + name + "\">\n";
  xml += "  <element name=\"name\" key=\"yes\" conv=\"no\"><field name=\"id\">"
         "<type length=\"16\">integer</type><value>" + std::to_string(key) +
         "</value></field></element>\n";
  xml += "  <element name=\"" + element + "\" key=\"no\" conv=\"yes\">\n";
  static const char* const kFields[] = {
      "<field name=\"seq\"><type length=\"32\" signed=\"no\">integer</type></field>",
      "<field name=\"v\"><type length=\"32\">integer</type></field>",
      "<field name=\"t\"><type>timestamp</type></field>",
      "<field name=\"a\"><type length=\"8\">integer</type></field>",
      "<field name=\"b\"><type length=\"16\" signed=\"no\">integer</type></field>",
      "<field name=\"c\"><type length=\"64\">integer</type></field>",
      "<field name=\"x\"><type length=\"32\">float</type></field>",
      "<field name=\"y\"><type length=\"64\">float</type></field>",
      "<field name=\"ok\"><type>boolean</type></field>",
      "<field name=\"u\"><type length=\"8\" signed=\"no\">integer</type></field>",
      "<field name=\"h\"><type length=\"16\">integer</type></field>",
      "<field name=\"tag\"><type bytes=\"8\">string</type></field>",
  };
  for (const char* field : kFields) xml += std::string{"    "} + field + "\n";
  xml += "  </element>\n</message>\n";
  return xml;
}

int in_key(std::size_t flow) { return 1000 + static_cast<int>(flow); }
int out_key(std::size_t flow) { return 2000 + static_cast<int>(flow); }
constexpr int kUnknownKey = 999;

std::string flow_tag(std::size_t flow) { return format("flow%02zu", flow); }

/// The <gatewayspec> document fanin_wide's gateway is built from.
std::string fanin_gateway_xml() {
  std::string side_a = "<linkspec>\n<das>sensors</das>\n<param name=\"vmax\" value=\"" +
                       std::to_string(kVmax) + "\"/>\n";
  std::string side_b = "<linkspec>\n<das>consumers</das>\n";
  std::string tail;
  for (std::size_t f = 0; f < kFaninFlows; ++f) {
    const std::string n = std::to_string(f);
    side_a += wide_message_xml("in" + n, in_key(f), "d" + n);
    side_a += "<port message=\"in" + n + "\" direction=\"input\" semantics=\"event\" "
              "paradigm=\"et\" interaction=\"push\" tmax=\"3600s\" queue=\"256\"/>\n";
    side_a += "<filter message=\"in" + n + "\">v &gt;= -vmax &amp;&amp; v &lt;= vmax</filter>\n";
    side_b += wide_message_xml("out" + n, out_key(f), "x" + n);
    side_b += "<port message=\"out" + n + "\" direction=\"output\" semantics=\"event\" "
              "paradigm=\"et\" queue=\"256\"/>\n";
    tail += "<rename side=\"1\" from=\"x" + n + "\" to=\"d" + n + "\"/>\n";
    tail += "<element name=\"d" + n + "\" semantics=\"event\" dacc=\"3600s\" queue=\"256\"/>\n";
  }
  return "<gatewayspec name=\"fanin\">\n<config dispatch=\"1ms\" dacc=\"3600s\" queue=\"256\"/>\n" +
         side_a + "</linkspec>\n" + side_b + "</linkspec>\n" + tail + "</gatewayspec>\n";
}

LiveGateway fanin_gateway() {
  auto gateway = core::parse_gateway_xml(fanin_gateway_xml());
  if (!gateway.ok())
    throw std::runtime_error("fanin_wide gateway: " + gateway.error().to_string());
  LiveGateway live;
  live.gateway = std::move(gateway.value());
  for (std::size_t f = 0; f < kFaninFlows; ++f) {
    live.in.push_back(live.gateway->link_a().spec().message("in" + std::to_string(f)));
    live.out.push_back(live.gateway->link_b().spec().message("out" + std::to_string(f)));
  }
  auto unknown = spec::parse_link_spec_xml(
      "<linkspec><das>sensors</das>" + wide_message_xml("stray", kUnknownKey, "d0") +
      "</linkspec>");
  if (!unknown.ok())
    throw std::runtime_error("fanin_wide stray message: " + unknown.error().to_string());
  live.unknown = *unknown.value().message("stray");
  return live;
}

// ---------------------------------------------------------------------------
// Frame contents
// ---------------------------------------------------------------------------

/// fanin_wide's field values for (flow, seq): everything but the
/// timestamp is a function of them, so the egress check sees every byte.
struct WideValues {
  std::int64_t v, a, b, c, u, h;
  double x, y;
  bool ok;
};

WideValues wide_values(std::size_t flow, std::uint32_t seq, std::uint32_t salt, bool out_of_range) {
  const std::int64_t s = seq;
  const auto f = static_cast<std::int64_t>(flow);
  WideValues w;
  w.v = out_of_range ? kVmax + 1 + s % 1000
                     : (s * 7919 + f * 104729 + salt) % (2 * kVmax + 1) - kVmax;
  w.a = (s + f + salt) % 256 - 128;
  w.b = (s * 3 + f) % 65536;
  w.c = s * 1000003 - f * (std::int64_t{1} << 40);
  w.x = static_cast<double>(static_cast<float>(s % 4096) * 0.25f);
  w.y = static_cast<double>(s) * 0.5 + static_cast<double>(f);
  w.ok = ((s ^ f) & 1) != 0;
  w.u = (s * 7 + f) % 256;
  w.h = (s * 13 + f) % 65536 - 32768;
  return w;
}

// ---------------------------------------------------------------------------
// Runtime-side probe: an Endpoint composed around rt::RingEndpoint
// ---------------------------------------------------------------------------

struct PollRec {
  std::uint64_t first = 0;  // consumption index of the poll's first frame
  std::uint32_t frames = 0;
  std::uint32_t frame_rec = 0;  // index of its first FrameRec
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

struct FrameRec {
  std::int64_t t0 = 0;  // sink call (gw.frame)
  std::int64_t t1 = 0;
  std::int64_t send_t0 = 0;  // rt.send inside it; 0 = no egress
  std::int64_t send_t1 = 0;
};

/// Single writer (the runtime thread): relaxed load + store, no RMW.
void bump(std::atomic<std::uint64_t>& counter, std::uint64_t delta) {
  counter.store(counter.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

/// State shared by the two ProbeEndpoints of one gateway. The counters
/// are written by the runtime thread and read by the generator at phase
/// boundaries; the span records are read only after the runtime thread
/// has been joined.
struct Probe {
  std::atomic<std::uint64_t> polls{0};
  std::atomic<std::uint64_t> empty_polls{0};
  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::uint64_t> busy_poll_ns{0};  // traced only: time in non-empty polls

  bool traced = false;
  std::atomic<bool> recording{false};
  std::vector<PollRec> polls_rec;
  std::vector<FrameRec> frames_rec;
  std::int64_t current = -1;  // frames_rec index of the frame inside the sink
};

struct ProbeCounts {
  std::uint64_t polls = 0, empty_polls = 0, frames = 0, busy_poll_ns = 0;
  static ProbeCounts read(const Probe& p) {
    return {p.polls.load(std::memory_order_relaxed), p.empty_polls.load(std::memory_order_relaxed),
            p.frames.load(std::memory_order_relaxed),
            p.busy_poll_ns.load(std::memory_order_relaxed)};
  }
  ProbeCounts minus(const ProbeCounts& o) const {
    return {polls - o.polls, empty_polls - o.empty_polls, frames - o.frames,
            busy_poll_ns - o.busy_poll_ns};
  }
  double idle_share() const {
    return polls == 0 ? 0.0 : static_cast<double>(empty_polls) / static_cast<double>(polls);
  }
};

class ProbeEndpoint final : public rt::Endpoint {
 public:
  /// `ingress`: this side's rx ring carries the generator's frames, so
  /// its polls are counted (and, traced, timed).
  ProbeEndpoint(rt::SpscRing& rx, rt::SpscRing& tx, Probe& probe, bool ingress)
      : inner_{rx, tx}, probe_{&probe}, ingress_{ingress} {
    timing_sink_.probe = &probe;
  }
  ProbeEndpoint(const ProbeEndpoint&) = delete;
  ProbeEndpoint& operator=(const ProbeEndpoint&) = delete;

  std::size_t poll(rt::FrameSink& sink, std::size_t max_frames) override {
    if (!ingress_) return inner_.poll(sink, max_frames);
    Probe& p = *probe_;
    if (!p.traced) {
      const std::size_t n = inner_.poll(sink, max_frames);
      count(n, 0);
      return n;
    }
    const std::int64_t t0 = now_ns();
    const std::uint64_t first = p.frames.load(std::memory_order_relaxed);
    const bool sample = p.recording.load(std::memory_order_acquire) &&
                        (first % kSampleEvery == 0 ||
                         first / kSampleEvery != (first + max_frames - 1) / kSampleEvery) &&
                        p.polls_rec.size() < p.polls_rec.capacity() &&
                        p.frames_rec.size() + max_frames <= p.frames_rec.capacity();
    const auto frame_rec = static_cast<std::uint32_t>(p.frames_rec.size());
    std::size_t n;
    if (sample) {
      timing_sink_.target = &sink;
      n = inner_.poll(timing_sink_, max_frames);
    } else {
      n = inner_.poll(sink, max_frames);
    }
    const std::int64_t t1 = now_ns();
    if (sample && n > 0)
      p.polls_rec.push_back({first, static_cast<std::uint32_t>(n), frame_rec, t0, t1});
    count(n, static_cast<std::uint64_t>(t1 - t0));
    return n;
  }

  bool send(std::span<const std::byte> payload) override {
    Probe& p = *probe_;
    if (p.current < 0) return inner_.send(payload);
    const std::int64_t t0 = now_ns();
    const bool ok = inner_.send(payload);
    FrameRec& rec = p.frames_rec[static_cast<std::size_t>(p.current)];
    rec.send_t0 = t0;
    rec.send_t1 = now_ns();
    return ok;
  }

  std::size_t backlog() const override { return inner_.backlog(); }
  const char* kind() const override { return inner_.kind(); }

 private:
  /// Proxy FrameSink timing each frame of a sampled poll (gw.frame).
  struct TimingSink final : rt::FrameSink {
    rt::FrameSink* target = nullptr;
    Probe* probe = nullptr;
    void on_frame(std::span<const std::byte> payload) override {
      Probe& p = *probe;
      p.current = static_cast<std::int64_t>(p.frames_rec.size());
      p.frames_rec.emplace_back();
      const std::int64_t t0 = now_ns();
      target->on_frame(payload);
      const std::int64_t t1 = now_ns();
      FrameRec& rec = p.frames_rec[static_cast<std::size_t>(p.current)];
      rec.t0 = t0;
      rec.t1 = t1;
      p.current = -1;
    }
  };

  void count(std::size_t n, std::uint64_t poll_ns) {
    Probe& p = *probe_;
    bump(p.polls, 1);
    if (n == 0) {
      bump(p.empty_polls, 1);
      return;
    }
    bump(p.frames, n);
    if (poll_ns != 0) bump(p.busy_poll_ns, poll_ns);
  }

  rt::RingEndpoint inner_;
  Probe* probe_;
  bool ingress_;
  TimingSink timing_sink_;
};

// ---------------------------------------------------------------------------
// Rig: one gateway, its rings and runtime, and the runtime's thread
// ---------------------------------------------------------------------------

struct Rig {
  Rig(LiveKind kind, bool traced) : live{build_live_gateway(kind)} {
    live.gateway->trace().set_enabled(false);  // as decogw: no per-frame trace records
    probe.traced = traced;
    if (traced) {
      probe.polls_rec.reserve(1 << 16);
      probe.frames_rec.reserve(1 << 19);
      live.gateway->bind_observability(metrics, spans);
    }
    rt::RuntimeConfig config;
    config.idle_sleep = Duration::zero();  // busy-poll: the documented spin setting
    runtime = std::make_unique<rt::GatewayRuntime>(*live.gateway, clock, config);
    if (traced) runtime->bind_observability(metrics);
    runtime->attach(0, side_a);
    runtime->attach(1, side_b);
    runtime->start();
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() { stop(); }

  void start(int core) {
    thread = std::thread{[this, core] {
      if (core >= 0) pin_current_thread({core});
      runtime->run();
    }};
  }
  void stop() {
    if (!thread.joinable()) return;
    runtime->stop();
    thread.join();
  }

  LiveGateway live;
  rt::SpscRing a_in{kRingBytes};
  rt::SpscRing a_out{kRingBytes};
  rt::SpscRing b_in{kRingBytes};
  rt::SpscRing b_out{kRingBytes};
  Probe probe;
  ProbeEndpoint side_a{a_in, a_out, probe, true};
  ProbeEndpoint side_b{b_in, b_out, probe, false};
  rt::MonotonicClock clock;
  obs::MetricsRegistry metrics;
  obs::TraceCollector spans;
  std::unique_ptr<rt::GatewayRuntime> runtime;
  std::thread thread;  // last: joined before the members it uses go away
};

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

/// Generator-side record of one sampled frame (gen.send / gen.recv).
struct GenRec {
  std::uint64_t index = 0;  // push index == runtime consumption index
  std::uint32_t seq = 0;
  std::int64_t send_t0 = 0, send_t1 = 0, recv_t0 = 0, recv_t1 = 0;
};

class Generator {
 public:
  Generator(LiveKind kind, Rig& rig, std::uint64_t seed)
      : rig_{rig},
        codec_{kind, rig.live, seed},
        schedule_{make_schedule(kind, seed)},
        order_{codec_.flows()},
        next_seq_(codec_.flows(), 0),
        pending_(codec_.flows()),
        hints_(1 << 16) {
    frame_.reserve(256);
  }

  /// Push the next scheduled frame stamped `t_ns`. False = ingress ring
  /// full (counted; the frame is offered again next time).
  bool push(std::int64_t t_ns) {
    const Slot& slot = schedule_[cursor_ % schedule_.size()];
    const bool sampled = recording_ && pushed_ % kSampleEvery == 0;
    const std::int64_t t0 = sampled ? now_ns() : 0;
    codec_.encode(slot, next_seq_[slot.flow], t_ns, frame_);
    if (!rig_.a_in.try_push(frame_)) {
      ++ring_rejects_;
      return false;
    }
    if (sampled) {
      pending_[slot.flow].push_back(gen_recs_.size());
      gen_recs_.push_back({pushed_, next_seq_[slot.flow], t0, now_ns(), 0, 0});
    }
    ++pushed_;
    ++cursor_;
    switch (slot.kind) {
      case SlotKind::kValid:
        ++next_seq_[slot.flow];
        ++sent_valid_;
        hints_[hint_tail_++ % hints_.size()] = slot.flow;
        break;
      case SlotKind::kUnknownKey: ++sent_unknown_; break;
      case SlotKind::kOutOfRange: ++sent_out_of_range_; break;
    }
    return true;
  }

  /// Drain up to `max` egress frames; `on_frame(t_ns, receipt_ns)` gets
  /// the carried timestamp of each frame that verified and, when
  /// stamping, the instant the generator saw it (before verifying it).
  template <typename F>
  std::size_t drain(std::size_t max, F&& on_frame) {
    return rig_.b_out.consume(max, [&](std::span<const std::byte> payload) {
      ++egress_;
      const std::int64_t t0 = recording_ || stamp_ ? now_ns() : 0;
      const std::size_t hint = hint_head_ < hint_tail_ ? hints_[hint_head_ % hints_.size()] : 0;
      std::size_t flow = 0;
      std::uint32_t seq = 0;
      std::int64_t t = 0;
      if (!codec_.verify(payload, hint, flow, seq, t) || t < t_floor_ || t > now_ns()) {
        order_.note_corrupt();
        return;
      }
      if (flow == hint) ++hint_head_;
      order_.on_frame(flow, seq);
      if (recording_) note_recv(flow, seq, t0);
      on_frame(t, t0);
    });
  }

  /// Drain until every valid frame sent came back, or `timeout_ns`.
  void flush(std::int64_t timeout_ns) {
    const std::int64_t deadline = now_ns() + timeout_ns;
    while (inflight() > 0 && now_ns() < deadline)
      drain(kDrainBurst, [](std::int64_t, std::int64_t) {});
  }

  std::uint64_t inflight() const { return sent_valid_ - egress_; }
  std::uint64_t egress() const { return egress_; }
  void set_recording(bool on) { recording_ = on; }
  /// Stamp each egress frame's receipt (the open loop's latency end).
  void set_stamping(bool on) { stamp_ = on; }
  void set_floor(std::int64_t t_ns) { t_floor_ = t_ns; }

  FlowOrderCheck& order() { return order_; }
  const std::vector<std::uint32_t>& sent_per_flow() const { return next_seq_; }
  const std::vector<GenRec>& gen_recs() const { return gen_recs_; }
  FrameCodec& codec() { return codec_; }
  std::uint64_t sent_valid() const { return sent_valid_; }
  std::uint64_t sent_unknown() const { return sent_unknown_; }
  std::uint64_t sent_out_of_range() const { return sent_out_of_range_; }
  std::uint64_t ring_rejects() const { return ring_rejects_; }

 private:
  void note_recv(std::size_t flow, std::uint32_t seq, std::int64_t t0) {
    auto& pending = pending_[flow];
    while (!pending.empty() && gen_recs_[pending.front()].seq < seq) pending.pop_front();
    if (pending.empty() || gen_recs_[pending.front()].seq != seq) return;
    GenRec& rec = gen_recs_[pending.front()];
    rec.recv_t0 = t0;
    rec.recv_t1 = now_ns();
    pending.pop_front();
  }

  Rig& rig_;
  FrameCodec codec_;
  std::vector<Slot> schedule_;
  FlowOrderCheck order_;
  std::vector<std::uint32_t> next_seq_;  // per flow: valid frames sent
  std::vector<std::deque<std::size_t>> pending_;
  std::vector<GenRec> gen_recs_;
  // Flow of each valid frame in send order: the egress check's first guess.
  std::vector<std::size_t> hints_;
  std::uint64_t hint_head_ = 0;
  std::uint64_t hint_tail_ = 0;
  std::vector<std::byte> frame_;
  std::uint64_t cursor_ = 0;
  std::uint64_t pushed_ = 0;
  std::uint64_t sent_valid_ = 0;
  std::uint64_t sent_unknown_ = 0;
  std::uint64_t sent_out_of_range_ = 0;
  std::uint64_t ring_rejects_ = 0;
  std::uint64_t egress_ = 0;
  std::int64_t t_floor_ = 0;
  bool recording_ = false;
  bool stamp_ = false;
};

// ---------------------------------------------------------------------------
// Trials: one open-loop and one closed-loop window on a freshly chosen pair
// ---------------------------------------------------------------------------

std::uint32_t clamp_ns(std::int64_t ns) {
  return static_cast<std::uint32_t>(std::clamp<std::int64_t>(ns, 0, 0xffffffffll));
}

struct ClosedWindow {
  double fps = 0.0;
  ProbeCounts probe;
};

/// Closed loop: keep kClosedWindow valid frames in flight for `duration_ns`.
ClosedWindow closed_window(Generator& gen, Rig& rig, std::int64_t duration_ns, bool record) {
  gen.set_recording(record);
  rig.probe.recording.store(record, std::memory_order_release);
  const ProbeCounts before = ProbeCounts::read(rig.probe);
  const std::uint64_t egress0 = gen.egress();
  const std::int64_t start = now_ns();
  std::int64_t now = start;
  while (now - start < duration_ns) {
    while (gen.inflight() < kClosedWindow && gen.push(now)) {
    }
    gen.drain(kDrainBurst, [](std::int64_t, std::int64_t) {});
    now = now_ns();
  }
  ClosedWindow w;
  w.fps = static_cast<double>(gen.egress() - egress0) * 1e9 / static_cast<double>(now - start);
  w.probe = ProbeCounts::read(rig.probe).minus(before);
  rig.probe.recording.store(false, std::memory_order_release);
  gen.set_recording(false);
  gen.flush(2'000'000'000);
  return w;
}

struct OpenWindow {
  std::vector<std::uint32_t> latency;   // ns, from due time to egress receipt
  std::vector<std::uint32_t> lateness;  // ns, how far behind schedule each frame was sent
  ProbeCounts probe;
};

/// Open loop: offer frames at `rate_fps` on a fixed schedule for
/// `duration_ns`; each frame carries its due time.
OpenWindow open_window(Generator& gen, Rig& rig, double rate_fps, std::int64_t duration_ns) {
  OpenWindow w;
  const double interval_ns = 1e9 / rate_fps;
  const auto total = static_cast<std::uint64_t>(static_cast<double>(duration_ns) / interval_ns);
  w.latency.reserve(total);
  w.lateness.reserve(total);
  const auto on_frame = [&](std::int64_t t, std::int64_t receipt) {
    w.latency.push_back(clamp_ns(receipt - t));
  };
  gen.set_stamping(true);
  const ProbeCounts before = ProbeCounts::read(rig.probe);
  const std::int64_t start = now_ns() + 1000;
  std::uint64_t k = 0;
  while (k < total) {
    const std::int64_t now = now_ns();
    for (std::size_t burst = 0; burst < kPushBurst && k < total; ++burst) {
      const std::int64_t due =
          start + static_cast<std::int64_t>(static_cast<double>(k) * interval_ns);
      if (due > now) break;
      // A frame the full ring refuses is lost to the schedule: counted
      // as a failure, and the schedule moves on.
      if (gen.push(due)) w.lateness.push_back(clamp_ns(now - due));
      ++k;
    }
    gen.drain(kDrainBurst, on_frame);
  }
  w.probe = ProbeCounts::read(rig.probe).minus(before);
  const std::int64_t deadline = now_ns() + 2'000'000'000;
  while (gen.inflight() > 0 && now_ns() < deadline) gen.drain(kDrainBurst, on_frame);
  gen.set_stamping(false);
  return w;
}

/// Span records of one traced closed-loop window: [begin, end) into the
/// probe's poll records and the generator's records.
struct SpanRange {
  std::size_t polls_begin = 0, polls_end = 0;
  std::size_t gen_begin = 0, gen_end = 0;
};

/// Figures of the windows kept in one pool.
struct Pool {
  std::vector<double> closed_fps;       // per closed window
  ProbeCounts closed_probe;             // summed over the closed windows
  std::vector<SpanRange> spans;         // traced closed windows
  std::vector<double> window_p50;       // ns, per open window
  std::vector<double> window_p99;       // ns, per open window
  std::vector<std::uint32_t> latency;   // ns, pooled over the open windows
  std::vector<std::uint32_t> lateness;  // ns, pooled over the open windows
  std::vector<double> open_idle;        // per open window

  void add_closed(const ClosedWindow& w, const SpanRange& range) {
    closed_fps.push_back(w.fps);
    closed_probe.polls += w.probe.polls;
    closed_probe.empty_polls += w.probe.empty_polls;
    closed_probe.frames += w.probe.frames;
    closed_probe.busy_poll_ns += w.probe.busy_poll_ns;
    spans.push_back(range);
  }
  void add_open(const OpenWindow& w) {
    std::vector<double> v(w.latency.begin(), w.latency.end());
    window_p50.push_back(percentile(v, 0.5));
    window_p99.push_back(percentile(v, 0.99));
    latency.insert(latency.end(), w.latency.begin(), w.latency.end());
    lateness.insert(lateness.end(), w.lateness.begin(), w.lateness.end());
    open_idle.push_back(w.probe.idle_share());
  }
};

/// The windows of one gateway across its trials. Only `valid` windows
/// count; `split` keeps the windows whose only defect was a core pair
/// without a shared cache, used (and the run flagged INVALID) only when
/// a kind of window has no valid one at all, so a run whose host never
/// offered a shared cache still reports figures.
struct Measurement {
  Pool valid;
  Pool split;
  std::size_t trials = 0;
  std::size_t split_cache = 0;  // trials whose cores did not share a cache
  std::size_t gen_late = 0;     // open windows where the generator fell behind
  std::size_t starved = 0;      // closed windows where the runtime starved
  std::size_t min_valid = kMinValidTrials;  // windows of each kind a valid run keeps
  std::vector<double> rtt_ns;
  std::vector<int> cores_used;

  const Pool& closed() const { return valid.closed_fps.empty() ? split : valid; }
  const Pool& open() const { return valid.window_p99.empty() ? split : valid; }
};

double quantile(std::vector<double> values, double p) { return percentile(values, p); }

double p99(const std::vector<std::uint32_t>& ns) {
  std::vector<double> v(ns.begin(), ns.end());
  return percentile(v, 0.99);
}

/// One trial: choose the core pair, run the runtime thread on it, measure
/// an open-loop window (rate_fps > 0) and a closed-loop window, and keep
/// them as valid only if the pair still shared a cache afterwards.
void run_trial(Generator& gen, Rig& rig, const std::vector<int>& cores, double rate_fps,
               bool record, Measurement& m) {
  const CorePair pair = best_pair(cores);
  if (pair.first >= 0) pin_current_thread({pair.first});
  rig.start(pair.second);
  closed_window(gen, rig, kWarmupNs, false);
  OpenWindow open;
  if (rate_fps > 0.0) open = open_window(gen, rig, rate_fps, kWindowNs);
  SpanRange range{rig.probe.polls_rec.size(), 0, gen.gen_recs().size(), 0};
  const ClosedWindow closed = closed_window(gen, rig, kWindowNs, record);
  range.polls_end = rig.probe.polls_rec.size();
  range.gen_end = gen.gen_recs().size();
  rig.stop();
  const double rtt_after = pair.first >= 0 ? round_trip_ns(pair.first, pair.second) : 0.0;

  ++m.trials;
  m.rtt_ns.push_back(std::max(pair.rtt_ns, rtt_after));
  for (const int c : {pair.first, pair.second})
    if (c >= 0 && std::find(m.cores_used.begin(), m.cores_used.end(), c) == m.cores_used.end())
      m.cores_used.push_back(c);
  const bool shared = pair.rtt_ns <= kSharedCacheRttNs && rtt_after <= kSharedCacheRttNs;
  if (!shared) ++m.split_cache;
  Pool& pool = shared ? m.valid : m.split;
  if (closed.probe.idle_share() <= kMaxClosedIdleShare)
    pool.add_closed(closed, range);
  else
    ++m.starved;
  if (rate_fps <= 0.0) return;
  if (!open.lateness.empty() && p99(open.lateness) <= kMaxLatenessNs)
    pool.add_open(open);
  else
    ++m.gen_late;
}

/// Trials until `budget_s` is spent and enough valid windows were kept
/// (kMinValidTrials, fewer on a short budget), for at most twice the budget.
void run_trials(Generator& gen, Rig& rig, const std::vector<int>& cores, double rate_fps,
                bool record, double budget_s, Measurement& m) {
  m.min_valid = std::clamp<std::size_t>(static_cast<std::size_t>(budget_s / 1.2), 2,
                                        kMinValidTrials);
  const std::int64_t start = now_ns();
  const auto elapsed = [&] { return static_cast<double>(now_ns() - start) / 1e9; };
  const auto enough = [&] {
    return m.valid.closed_fps.size() >= m.min_valid &&
           (rate_fps <= 0.0 || m.valid.window_p99.size() >= m.min_valid);
  };
  while (elapsed() < 2 * budget_s && (elapsed() < budget_s || !enough()))
    run_trial(gen, rig, cores, rate_fps, record, m);
}

// ---------------------------------------------------------------------------
// Run assembly
// ---------------------------------------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Output checks of one gateway after its runtime thread stopped.
void check_rig(Report& report, Tally& tally, Generator& gen, Rig& rig, const std::string& label) {
  const std::uint64_t lost = gen.order().finish(gen.sent_per_flow());
  const rt::RuntimeStats& rs = rig.runtime->stats();
  const core::GatewayStats& gs = rig.live.gateway->stats();
  const RejectAccounting rejects{gen.sent_unknown(), gen.sent_out_of_range(), rs.rx_unknown,
                                 gs.blocked_value};
  const auto n = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
  report.check(gen.order().corrupt() == 0,
               format("%s: every egress frame decodes with the values sent (%llu bad)",
                      label.c_str(), n(gen.order().corrupt())));
  report.check(gen.order().out_of_order() == 0 && lost == 0,
               format("%s: each flow's sequence arrives complete and in order "
                      "(%llu out of order, %llu lost of %llu)",
                      label.c_str(), n(gen.order().out_of_order()), n(lost), n(gen.sent_valid())));
  report.check(rejects.ok(),
               format("%s: designed rejects counted exactly (unknown key %llu sent, %llu "
                      "rx_unknown; out of range %llu sent, %llu blocked_value)",
                      label.c_str(), n(rejects.sent_unknown), n(rejects.rt_rx_unknown),
                      n(rejects.sent_out_of_range), n(rejects.core_blocked_value)));
  report.check(gs.blocked_temporal == 0, format("%s: no temporal rejections (%llu)",
                                                label.c_str(), n(gs.blocked_temporal)));
  const std::uint64_t runtime_losses =
      rs.rx_dropped + rs.tx_dropped + rs.rx_decode_errors + rs.tx_encode_errors;
  report.check(runtime_losses == 0,
               format("%s: runtime lost nothing (rx_dropped %llu, tx_dropped %llu, decode "
                      "errors %llu, encode errors %llu)",
                      label.c_str(), n(rs.rx_dropped), n(rs.tx_dropped), n(rs.rx_decode_errors),
                      n(rs.tx_encode_errors)));
  const std::uint64_t failed = gen.ring_rejects() + lost + gen.order().corrupt() +
                               gen.order().out_of_order() + runtime_losses;
  const std::uint64_t offered = gen.sent_valid() + gen.ring_rejects();
  tally.attempted += offered;
  tally.failed += failed;
  report.note("errors", format("%s: offered %llu valid frames, failed %llu (ring rejections "
                               "%llu), error_rate %.3g",
                               label.c_str(), n(offered), n(failed), n(gen.ring_rejects()),
                               static_cast<double>(failed) /
                                   static_cast<double>(std::max<std::uint64_t>(1, offered))));
}

std::unique_ptr<Rig> timed_setups(LiveKind kind, bool traced, int reps,
                                  std::vector<double>& seconds) {
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < reps; ++i) {
    rig.reset();
    const std::int64_t t0 = now_ns();
    rig = std::make_unique<Rig>(kind, traced);
    seconds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return rig;
}

/// Validity flags and per-phase figures of one measurement.
void note_measurement(Report& report, const std::string& label, double rate_fps,
                      const Measurement& m) {
  report.note("cores", format("%s: %zu trials, cache-line round trip median %.0f ns; %zu "
                              "trials on cores without a shared cache (> %.0f ns)",
                              label.c_str(), m.trials, median(m.rtt_ns), m.split_cache,
                              kSharedCacheRttNs));
  const Pool& closed = m.closed();
  report.note("phase", format("%s closed loop (%zu in flight): %zu valid windows (%zu starved), "
                              "%.0f fps (upper quartile), %.0f fps (median), "
                              "rt.idle_poll_share %.4f, frames/poll %.2f",
                              label.c_str(), kClosedWindow, m.valid.closed_fps.size(), m.starved,
                              quantile(closed.closed_fps, 0.75), median(closed.closed_fps),
                              closed.closed_probe.idle_share(),
                              static_cast<double>(closed.closed_probe.frames) /
                                  static_cast<double>(std::max<std::uint64_t>(
                                      1, closed.closed_probe.polls -
                                             closed.closed_probe.empty_polls))));
  std::string windows;
  for (const double fps : closed.closed_fps) windows += format(" %.0f", fps);
  report.note("windows", label + " closed-loop fps:" + windows);
  bool valid = m.valid.closed_fps.size() >= m.min_valid;
  if (rate_fps > 0.0) {
    const Pool& open = m.open();
    windows.clear();
    for (std::size_t i = 0; i < open.window_p99.size(); ++i)
      windows += format(" %.0f/%.0f", open.window_p50[i], open.window_p99[i]);
    report.note("windows", label + " open-loop p50/p99 ns:" + windows);
    std::vector<double> latency(open.latency.begin(), open.latency.end());
    const double top = highest_supported_percentile(latency.size());
    const double p50 = percentile(latency, 0.5);
    const double p99v = percentile(latency, 0.99);
    const double ptop = percentile(latency, top);
    report.note("phase", format("%s open loop %.0f fps: %zu valid windows (%zu generator-late), "
                                "window p50 %.3f us, p99 %.3f us (lower quartiles); pooled %zu "
                                "samples: p50 %.3f us, p99 %.3f us, p%.3f %.3f us; "
                                "gen.lateness_us.p99 %.3f, rt.idle_poll_share %.4f",
                                label.c_str(), rate_fps, m.valid.window_p99.size(), m.gen_late,
                                quantile(open.window_p50, 0.25) / 1e3,
                                quantile(open.window_p99, 0.25) / 1e3, latency.size(), p50 / 1e3,
                                p99v / 1e3, top * 100.0, ptop / 1e3, p99(open.lateness) / 1e3,
                                median(open.open_idle)));
    valid = valid && m.valid.window_p99.size() >= m.min_valid;
  }
  report.note("validity",
              format("%s: %s", label.c_str(),
                     valid ? "valid"
                           : "INVALID: too few windows where the cores shared a cache, the "
                             "generator kept its schedule and the runtime never starved"));
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::int64_t>& self) {
  std::ofstream out{path};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.trace % kSampleEvery != 0) continue;  // full chains only
    out << "{\"trace\": " << s.trace << ", \"span\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": \"" << stage_name(s.stage) << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"self_ns\": " << self[i] << "}\n";
  }
}

/// The traced gateway's spans, per-layer figures and their reconciliation.
void traced_metrics(Report& report, Rig& rig, Generator& gen, const Measurement& traced,
                    double untraced_fps, const LiveConfig& config, const std::string& name) {
  const Pool& closed = traced.closed();
  std::vector<Span> spans;
  std::uint64_t next_id = 1;
  std::int64_t sampled_poll_ns = 0;
  std::uint64_t sampled_frames = 0;
  std::size_t sampled_polls = 0;
  for (const SpanRange& range : closed.spans) {
    for (std::size_t r = range.polls_begin; r < range.polls_end; ++r) {
      const PollRec& p = rig.probe.polls_rec[r];
      ++sampled_polls;
      std::uint64_t trace = p.first;
      for (std::uint64_t k = p.first; k < p.first + p.frames; ++k)
        if (k % kSampleEvery == 0) trace = k;
      const std::uint64_t poll_id = next_id++;
      spans.push_back({trace, poll_id, 0, Stage::kRtPoll, p.t0, p.t1});
      sampled_poll_ns += p.t1 - p.t0;
      sampled_frames += p.frames;
      for (std::uint32_t i = 0; i < p.frames; ++i) {
        const FrameRec& f = rig.probe.frames_rec[p.frame_rec + i];
        const std::uint64_t frame_id = next_id++;
        spans.push_back({p.first + i, frame_id, poll_id, Stage::kGwFrame, f.t0, f.t1});
        if (f.send_t1 != 0)
          spans.push_back(
              {p.first + i, next_id++, frame_id, Stage::kRtSend, f.send_t0, f.send_t1});
      }
    }
    for (std::size_t r = range.gen_begin; r < range.gen_end; ++r) {
      const GenRec& g = gen.gen_recs()[r];
      spans.push_back({g.index, next_id++, 0, Stage::kGenSend, g.send_t0, g.send_t1});
      if (g.recv_t1 != 0)
        spans.push_back({g.index, next_id++, 0, Stage::kGenRecv, g.recv_t0, g.recv_t1});
    }
  }
  const std::vector<std::int64_t> self = self_times(spans);
  const StageTotals totals = stage_totals(spans, self);
  const auto per = [](std::int64_t ns, std::uint64_t n) {
    return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
  };
  const auto stage = [&](Stage s) { return totals.self_ns[static_cast<int>(s)]; };
  const auto count = [&](Stage s) { return totals.count[static_cast<int>(s)]; };
  const double ring_claim = per(stage(Stage::kRtPoll), sampled_frames);
  const double frame_ns = per(stage(Stage::kGwFrame), count(Stage::kGwFrame));
  const double send_ns = per(stage(Stage::kRtSend), count(Stage::kRtSend));
  const double stage_sum =
      per(stage(Stage::kRtPoll) + stage(Stage::kGwFrame) + stage(Stage::kRtSend), sampled_frames);
  const double sampled_poll = per(sampled_poll_ns, sampled_frames);
  const double poll_ns = per(static_cast<std::int64_t>(closed.closed_probe.busy_poll_ns),
                             closed.closed_probe.frames);
  const double traced_fps = median(closed.closed_fps);
  const double loop_ns = traced_fps > 0.0 ? 1e9 / traced_fps : 0.0;

  report.note("spans", format("%s: %zu spans from %zu sampled polls (%llu frames); self time per "
                              "frame: rt.poll (ring claim) %.1f ns + gw.frame %.1f ns + rt.send "
                              "%.1f ns = %.1f ns; sampled rt.poll %.1f ns/frame",
                              name.c_str(), spans.size(), sampled_polls,
                              static_cast<unsigned long long>(sampled_frames), ring_claim,
                              frame_ns, send_ns, stage_sum, sampled_poll));
  report.check(sampled_frames > 0 && std::abs(stage_sum - sampled_poll) <= 0.01 * sampled_poll,
               format("%s: stage self times add up to rt.poll per frame within 1%% (%.1f vs "
                      "%.1f ns)",
                      name.c_str(), stage_sum, sampled_poll));
  report.check(poll_ns > 0.0 && std::abs(sampled_poll - poll_ns) <= kPollTolerance * poll_ns,
               format("%s: sampled rt.poll per frame matches all non-empty polls within %.0f%% "
                      "(%.1f vs %.1f ns)",
                      name.c_str(), kPollTolerance * 100, sampled_poll, poll_ns));
  const double poll_share = loop_ns > 0.0 ? poll_ns / loop_ns : 0.0;
  report.check(poll_share >= kMinPollShareOfLoop && poll_share <= kMaxPollShareOfLoop,
               format("%s: rt.poll per frame reconciles with 1/throughput_fps: %.1f of %.1f ns "
                      "(share %.3f, stated tolerance [%.2f, %.2f]; the rest is the runtime "
                      "loop outside poll)",
                      name.c_str(), poll_ns, loop_ns, poll_share, kMinPollShareOfLoop,
                      kMaxPollShareOfLoop));

  const std::string path =
      config.trace_dir + "/" + name + "_seed" + std::to_string(config.seed) + ".jsonl";
  write_spans(path, spans, self);
  report.note("spans", "full span chains (1 in " + std::to_string(kSampleEvery) +
                           " frames) written to " + path);

  const CodecCost codec = gen.codec().time_codec(200'000);
  const core::GatewayStats& gs = rig.live.gateway->stats();
  const rt::RuntimeStats& rs = rig.runtime->stats();
  const std::string gw = "gw." + rig.live.gateway->name();
  const auto hist_p50 = [&](const std::string& metric) {
    return static_cast<double>(
        rig.metrics.histogram(gw + "." + metric, obs::Determinism::kHostTime).percentile(0.5));
  };
  report.add("rt.ring_claim_ns_per_frame", ring_claim, "ns");
  report.add("rt.poll_ns_per_frame", poll_ns, "ns");
  report.add("rt.frames_per_poll",
             static_cast<double>(closed.closed_probe.frames) /
                 static_cast<double>(std::max<std::uint64_t>(
                     1, closed.closed_probe.polls - closed.closed_probe.empty_polls)),
             "count");
  report.add("rt.send_ns", send_ns, "ns");
  report.add("rt.idle_poll_share", closed.closed_probe.idle_share(), "ratio");
  report.add("gw.frame_ns", frame_ns, "ns");
  report.add("spec.decode_ns", codec.decode_ns, "ns");
  report.add("spec.encode_ns", codec.encode_ns, "ns");
  report.add("gw.dissect_ns.p50", hist_p50("dissect_ns"), "ns");
  report.add("gw.construct_ns.p50", hist_p50("construct_ns"), "ns");
  report.add("gw.forwarded", static_cast<double>(gs.messages_constructed), "count");
  report.add("core.messages_in", static_cast<double>(gs.messages_in), "count");
  report.add("core.admitted_share",
             gs.messages_in == 0 ? 0.0
                                 : static_cast<double>(gs.messages_admitted) /
                                       static_cast<double>(gs.messages_in),
             "ratio");
  report.add("core.blocked_value", static_cast<double>(gs.blocked_value), "count");
  report.add("rt.rx_unknown", static_cast<double>(rs.rx_unknown), "count");
  report.add("vn.rx_dropped", static_cast<double>(rs.rx_dropped), "count");
  report.add("ring.ingress_drops", static_cast<double>(rig.a_in.drops()), "count");
  report.add("gen.lateness_us.p99", p99(traced.open().lateness) / 1e3, "us");
  report.add("obs.overhead_share", untraced_fps > 0.0 ? 1.0 - traced_fps / untraced_fps : 0.0,
             "ratio");
}

}  // namespace

// ---------------------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------------------

spec::MessageSpec state_message(const std::string& name, const std::string& element, int id) {
  spec::MessageSpec ms{name};
  spec::ElementSpec key;
  key.name = "name";
  key.key = true;
  key.fields.push_back(spec::FieldSpec{"id", spec::FieldType::kInt16, 0, ta::Value{id}});
  ms.add_element(std::move(key));
  spec::ElementSpec payload;
  payload.name = element;
  payload.convertible = true;
  payload.fields.push_back(spec::FieldSpec{"value", spec::FieldType::kInt32, 0, std::nullopt});
  payload.fields.push_back(spec::FieldSpec{"t", spec::FieldType::kTimestamp, 0, std::nullopt});
  ms.add_element(std::move(payload));
  return ms;
}

LiveGateway build_live_gateway(LiveKind kind) {
  return kind == LiveKind::kRelaySmall ? relay_gateway() : fanin_gateway();
}

std::vector<Slot> make_schedule(LiveKind kind, std::uint64_t seed) {
  if (kind == LiveKind::kRelaySmall) return {Slot{}};
  std::uint64_t state = seed;
  std::vector<Slot> schedule;
  schedule.reserve(kScheduleBlocks * kFaninFlows);
  std::vector<std::uint16_t> round(kFaninFlows);
  for (std::size_t f = 0; f < kFaninFlows; ++f) round[f] = static_cast<std::uint16_t>(f);
  for (std::size_t b = 0; b < kScheduleBlocks; ++b) {
    for (std::size_t i = kFaninFlows - 1; i > 0; --i)
      std::swap(round[i], round[splitmix64(state) % (i + 1)]);
    for (const std::uint16_t f : round) schedule.push_back(Slot{f, SlotKind::kValid});
  }
  for (std::size_t block = 0; block < schedule.size() / kRejectPeriod; ++block) {
    Slot& slot = schedule[block * kRejectPeriod + splitmix64(state) % kRejectPeriod];
    slot.kind = block % 2 == 0 ? SlotKind::kUnknownKey : SlotKind::kOutOfRange;
  }
  return schedule;
}

FrameCodec::FrameCodec(LiveKind kind, const LiveGateway& gateway, std::uint64_t seed)
    : kind_{kind}, in_{gateway.in}, out_{gateway.out} {
  std::uint64_t state = seed ^ 0x5eedull;
  base_ = static_cast<std::uint32_t>(splitmix64(state) % (1u << 20));
  if (gateway.unknown) unknown_ = &*gateway.unknown;
  for (std::size_t f = 0; f < in_.size(); ++f) {
    in_inst_.push_back(spec::make_instance(*in_[f]));
    out_inst_.push_back(spec::make_instance(*out_[f]));
    if (kind_ == LiveKind::kFaninWide)
      in_inst_[f].elements()[1].fields[11] = ta::Value{flow_tag(f)};
  }
  if (unknown_ != nullptr) {
    unknown_inst_ = spec::make_instance(*unknown_);
    unknown_inst_->elements()[1].fields[11] = ta::Value{std::string{"stray"}};
  }
}

void FrameCodec::fill(spec::MessageInstance& inst, std::size_t flow, std::uint32_t seq,
                      std::int64_t t_ns, bool out_of_range) const {
  std::vector<ta::Value>& f = inst.elements()[1].fields;
  if (kind_ == LiveKind::kRelaySmall) {
    f[0] = ta::Value{static_cast<std::int64_t>(base_) + seq};
    f[1] = ta::Value{Instant::from_ns(t_ns)};
    return;
  }
  const WideValues w = wide_values(flow, seq, base_, out_of_range);
  f[0] = ta::Value{static_cast<std::int64_t>(seq)};
  f[1] = ta::Value{w.v};
  f[2] = ta::Value{Instant::from_ns(t_ns)};
  f[3] = ta::Value{w.a};
  f[4] = ta::Value{w.b};
  f[5] = ta::Value{w.c};
  f[6] = ta::Value{w.x};
  f[7] = ta::Value{w.y};
  f[8] = ta::Value{w.ok};
  f[9] = ta::Value{w.u};
  f[10] = ta::Value{w.h};
}

void FrameCodec::encode(const Slot& slot, std::uint32_t seq, std::int64_t t_ns,
                        std::vector<std::byte>& out) {
  const bool unknown = slot.kind == SlotKind::kUnknownKey && unknown_ != nullptr;
  spec::MessageInstance& inst = unknown ? *unknown_inst_ : in_inst_[slot.flow];
  fill(inst, slot.flow, seq, t_ns, slot.kind == SlotKind::kOutOfRange);
  const spec::MessageSpec& message = unknown ? *unknown_ : *in_[slot.flow];
  if (!spec::encode_into(message, inst, out).ok())
    throw std::runtime_error("generator: cannot encode " + message.name());
}

bool FrameCodec::fields_match(const spec::MessageInstance& inst, std::size_t flow,
                              std::uint32_t& seq) const {
  const std::vector<ta::Value>& f = inst.elements()[1].fields;
  if (kind_ == LiveKind::kRelaySmall) {
    const std::int64_t value = f[0].as_int();
    if (value < base_) return false;
    seq = static_cast<std::uint32_t>(value - base_);
    return true;
  }
  const std::int64_t s = f[0].as_int();
  if (s < 0 || s > 0xffffffffll) return false;
  seq = static_cast<std::uint32_t>(s);
  const WideValues w = wide_values(flow, seq, base_, false);
  return f[1].as_int() == w.v && f[3].as_int() == w.a && f[4].as_int() == w.b &&
         f[5].as_int() == w.c && f[6].as_real() == w.x && f[7].as_real() == w.y &&
         f[8].as_bool() == w.ok && f[9].as_int() == w.u && f[10].as_int() == w.h &&
         f[11].as_string() == flow_tag(flow);
}

bool FrameCodec::verify(std::span<const std::byte> payload, std::size_t hint, std::size_t& flow,
                        std::uint32_t& seq, std::int64_t& t_ns) {
  flow = out_.size();
  if (hint < out_.size() && spec::matches_key(*out_[hint], payload)) {
    flow = hint;
  } else {
    for (std::size_t f = 0; f < out_.size(); ++f)
      if (spec::matches_key(*out_[f], payload)) {
        flow = f;
        break;
      }
  }
  if (flow == out_.size()) return false;
  spec::MessageInstance& inst = out_inst_[flow];
  if (!spec::decode_into(*out_[flow], payload, inst).ok()) return false;
  try {
    if (!fields_match(inst, flow, seq)) return false;
    t_ns = inst.elements()[1].fields[kind_ == LiveKind::kRelaySmall ? 1 : 2].as_int();
  } catch (const std::exception&) {
    return false;  // a field decoded to the wrong value type
  }
  return true;
}

Report run_live(const LiveConfig& config) {
  Report report;
  Tally tally;
  const std::string name = config.kind == LiveKind::kRelaySmall ? "relay_small" : "fanin_wide";
  const double rate = config.kind == LiveKind::kRelaySmall ? kRelayRateFps : kFaninRateFps;

  if (!config.trace) {
    std::vector<double> setups;
    std::unique_ptr<Rig> rig = timed_setups(config.kind, false, kSetupReps, setups);
    Generator gen{config.kind, *rig, config.seed};
    gen.set_floor(now_ns());
    Measurement m;
    run_trials(gen, *rig, config.cores, rate, false, config.seconds, m);
    check_rig(report, tally, gen, *rig, name);
    note_measurement(report, name, rate, m);
    report.note("setup", format("%zu setups, median %.6f s", setups.size(), median(setups)));
    report.pinned_cores = m.cores_used;

    // Host interference only ever slows the gateway down, so each figure
    // comes from the cleaner quarter of the windows.
    report.add("throughput_fps", quantile(m.closed().closed_fps, 0.75), "1/s");
    report.add("p50_us", quantile(m.open().window_p50, 0.25) / 1e3, "us");
    report.add("p99_us", quantile(m.open().window_p99, 0.25) / 1e3, "us");
    report.add("setup_s", median(setups), "s");
    report.attempted = std::max<std::uint64_t>(1, tally.attempted);
    report.failed = tally.failed;
    return report;
  }

  // Traced run: an untraced gateway gives the reference throughput, then
  // a traced one (probe spans plus the gateway's and runtime's own
  // instruments) gives the per-layer figures and the observer's cost.
  Measurement untraced;
  {
    std::vector<double> setups;
    std::unique_ptr<Rig> rig = timed_setups(config.kind, false, 1, setups);
    Generator gen{config.kind, *rig, config.seed};
    gen.set_floor(now_ns());
    run_trials(gen, *rig, config.cores, 0.0, false, config.seconds / 3, untraced);
    check_rig(report, tally, gen, *rig, name + " untraced");
    note_measurement(report, name + " untraced", 0.0, untraced);
  }
  std::vector<double> setups;
  std::unique_ptr<Rig> rig = timed_setups(config.kind, true, 1, setups);
  Generator gen{config.kind, *rig, config.seed};
  gen.set_floor(now_ns());
  Measurement traced;
  run_trials(gen, *rig, config.cores, rate, true, config.seconds / 2, traced);
  check_rig(report, tally, gen, *rig, name + " traced");
  note_measurement(report, name + " traced", rate, traced);
  traced_metrics(report, *rig, gen, traced, median(untraced.closed().closed_fps), config, name);
  report.pinned_cores = traced.cores_used;
  report.attempted = std::max<std::uint64_t>(1, tally.attempted);
  report.failed = tally.failed;
  return report;
}

CodecCost FrameCodec::time_codec(std::size_t iterations) {
  std::vector<std::vector<std::byte>> frames(in_.size());
  for (std::size_t f = 0; f < in_.size(); ++f) {
    fill(in_inst_[f], f, 1, now_ns(), false);
    if (!spec::encode_into(*in_[f], in_inst_[f], frames[f]).ok())
      throw std::runtime_error("codec timing: cannot encode " + in_[f]->name());
  }
  std::vector<spec::MessageInstance> scratch;
  for (const spec::MessageSpec* message : in_) scratch.push_back(spec::make_instance(*message));
  std::vector<std::byte> buf;
  CodecCost cost;
  std::size_t failures = 0;
  std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < iterations; ++i) {
    const std::size_t f = i % in_.size();
    failures += spec::encode_into(*in_[f], in_inst_[f], buf).ok() ? 0 : 1;
  }
  cost.encode_ns = static_cast<double>(now_ns() - t0) / static_cast<double>(iterations);
  t0 = now_ns();
  for (std::size_t i = 0; i < iterations; ++i) {
    const std::size_t f = i % in_.size();
    failures += spec::decode_into(*in_[f], frames[f], scratch[f]).ok() ? 0 : 1;
  }
  cost.decode_ns = static_cast<double>(now_ns() - t0) / static_cast<double>(iterations);
  if (failures != 0) throw std::runtime_error("codec timing: encode/decode failed");
  return cost;
}

}  // namespace perfbench
