#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace perfbench {

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  index = std::min(index, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double highest_supported_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999})
    if (static_cast<double>(n) * (1.0 - p) >= 10.0 - 1e-6) best = p;  // 1 - p is inexact
  return best;
}

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kGenSend: return "gen.send";
    case Stage::kRtPoll: return "rt.poll";
    case Stage::kGwFrame: return "gw.frame";
    case Stage::kRtSend: return "rt.send";
    case Stage::kGenRecv: return "gen.recv";
    case Stage::kCount: break;
  }
  return "?";
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) by_id.emplace(spans[i].id, i);

  // Children's intervals, clipped to the parent, grouped per parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;
    const Span& parent = spans[it->second];
    const std::int64_t lo = std::max(s.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(s.end_ns, parent.end_ns);
    if (hi > lo) covered[it->second].emplace_back(lo, hi);
  }

  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t union_ns = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

StageTotals stage_totals(const std::vector<Span>& spans, const std::vector<std::int64_t>& self) {
  StageTotals totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int stage = static_cast<int>(spans[i].stage);
    totals.self_ns[stage] += self[i];
    ++totals.count[stage];
  }
  return totals;
}

void FlowOrderCheck::on_frame(std::size_t flow, std::uint32_t seq) {
  ++received_;
  if (flow >= next_.size() || seq != next_[flow]) {
    ++out_of_order_;
    if (flow < next_.size() && seq > next_[flow]) next_[flow] = seq + 1;  // resync after a gap
    return;
  }
  ++next_[flow];
}

std::uint64_t FlowOrderCheck::finish(const std::vector<std::uint32_t>& sent_per_flow) {
  lost_ = 0;
  for (std::size_t flow = 0; flow < next_.size(); ++flow) {
    const std::uint32_t sent = flow < sent_per_flow.size() ? sent_per_flow[flow] : 0;
    if (sent > next_[flow]) lost_ += sent - next_[flow];
  }
  finished_ = true;
  return lost_;
}

namespace {

/// FNV-1a step over the eight bytes of `v`.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::uint64_t fingerprint(const ClusterCounts& c) {
  std::uint64_t h = 14695981039346656037ull;
  h = fnv1a(h, c.sim_events);
  h = fnv1a(h, c.forwarded);
  h = fnv1a(h, c.vn_messages);
  h = fnv1a(h, c.frames_delivered);
  h = fnv1a(h, c.frames_blocked);
  h = fnv1a(h, static_cast<std::uint64_t>(c.precision_ns));
  return h;
}

}  // namespace perfbench
