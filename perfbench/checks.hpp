// Arithmetic and output checks of the benchmark, kept free of threads and
// clocks so perfbench_selftest can drive them with synthetic inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

/// Nearest-rank percentile (p in [0,1]) of `values`; reorders them.
/// Empty input gives 0.
double percentile(std::vector<double>& values, double p);
double median(std::vector<double> values);

/// Highest percentile on the ladder 50, 90, 99, 99.9, 99.99, 99.999 that
/// still has at least ten samples beyond it among `n` samples (0 when
/// even p50 does not).
double highest_supported_percentile(std::size_t n);

// ---------------------------------------------------------------------------
// Spans and self time
// ---------------------------------------------------------------------------

/// The stages a live frame crosses, in causal order.
enum class Stage : std::uint8_t { kGenSend, kRtPoll, kGwFrame, kRtSend, kGenRecv, kCount };
const char* stage_name(Stage stage);

struct Span {
  std::uint64_t trace = 0;   // frame id (generator push index)
  std::uint64_t id = 0;      // unique within a run, never 0
  std::uint64_t parent = 0;  // 0 = root
  Stage stage = Stage::kGenSend;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals. Parallel to `spans`.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Per-stage totals of self time and span count.
struct StageTotals {
  std::int64_t self_ns[static_cast<int>(Stage::kCount)] = {};
  std::uint64_t count[static_cast<int>(Stage::kCount)] = {};
};
/// `self` is self_times(spans).
StageTotals stage_totals(const std::vector<Span>& spans, const std::vector<std::int64_t>& self);

// ---------------------------------------------------------------------------
// Live output checks
// ---------------------------------------------------------------------------

/// Per-flow completeness and order of the egress stream. Frames that did
/// not decode or carried wrong field values are reported by the caller
/// through note_corrupt().
class FlowOrderCheck {
 public:
  explicit FlowOrderCheck(std::size_t flows) : next_(flows, 0) {}

  /// An egress frame of `flow` carrying sequence number `seq`.
  void on_frame(std::size_t flow, std::uint32_t seq);
  void note_corrupt() { ++corrupt_; }

  /// Close the check against the number of valid frames sent per flow.
  /// Returns the frames never received (lost).
  std::uint64_t finish(const std::vector<std::uint32_t>& sent_per_flow);

  std::uint64_t received() const { return received_; }
  std::uint64_t corrupt() const { return corrupt_; }
  std::uint64_t out_of_order() const { return out_of_order_; }
  std::uint64_t lost() const { return lost_; }
  bool ok() const { return corrupt_ == 0 && out_of_order_ == 0 && lost_ == 0 && finished_; }

 private:
  std::vector<std::uint32_t> next_;
  std::uint64_t received_ = 0;
  std::uint64_t corrupt_ = 0;
  std::uint64_t out_of_order_ = 0;
  std::uint64_t lost_ = 0;
  bool finished_ = false;
};

/// Designed rejects must be counted exactly where the program rejects
/// them: unknown keys at the runtime, out-of-range values at the filter.
struct RejectAccounting {
  std::uint64_t sent_unknown = 0;
  std::uint64_t sent_out_of_range = 0;
  std::uint64_t rt_rx_unknown = 0;
  std::uint64_t core_blocked_value = 0;
  bool ok() const {
    return sent_unknown == rt_rx_unknown && sent_out_of_range == core_blocked_value;
  }
};

// ---------------------------------------------------------------------------
// Simulator output checks
// ---------------------------------------------------------------------------

struct ClusterCounts {
  std::uint64_t sim_events = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t vn_messages = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_blocked = 0;
  std::int64_t precision_ns = 0;
};

/// E21's fingerprint over one run's counters.
std::uint64_t fingerprint(const ClusterCounts& counts);

}  // namespace perfbench
