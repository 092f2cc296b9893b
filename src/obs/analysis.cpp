#include "obs/analysis.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace decos::obs {

TraceFold::TraceFold(const Span& root) : root_name_{root.name}, root_start_{root.start} {
  add(root);
}

bool TraceFold::add(const Span& s) {
  last_name_ = s.name;
  last_end_ = s.end;
  switch (s.phase) {
    case Phase::kSend:
      break;
    case Phase::kBus:
      if (!seen_.bus_end) seen_.bus_end = s.end;
      break;
    case Phase::kDissect:
      if (!seen_.dissect_end) seen_.dissect_end = s.end;
      break;
    case Phase::kRepoWait:
      if (!construct_end_ && (!seen_.repo_end || s.duration() > seen_.repo_longest)) {
        seen_.repo_end = s.end;
        seen_.repo_longest = s.duration();
      }
      break;
    case Phase::kConstruct:
      if (!construct_end_) {
        construct_end_ = s.end;
        deliver_end_.reset();  // an earlier delivery fed the gateway, not the consumer
      }
      break;
    case Phase::kDeliver:
      if (construct_end_ || !deliver_end_) {
        deliver_end_ = s.end;
        deliver_name_ = s.name;
        at_deliver_ = seen_;
      }
      return construct_end_.has_value();
  }
  return false;
}

TraceFold::Sample TraceFold::finish() const {
  // A delivery without a construction ends the trace where it arrived.
  const Landmarks& lm = deliver_end_ && !construct_end_ ? at_deliver_ : seen_;
  Sample out;
  out.root = root_name_;
  out.terminal = deliver_end_ ? deliver_name_ : last_name_;
  out.end = deliver_end_ ? *deliver_end_ : last_end_;
  auto& phase = out.phase;
  phase[kTotalPhase] = (out.end - root_start_).ns();
  if (lm.bus_end) phase[0] = (*lm.bus_end - root_start_).ns();
  if (lm.bus_end && lm.dissect_end) phase[1] = (*lm.dissect_end - *lm.bus_end).ns();
  if (lm.repo_end) phase[2] = lm.repo_longest.ns();
  if (lm.repo_end && construct_end_) phase[3] = (*construct_end_ - *lm.repo_end).ns();
  if (deliver_end_ && construct_end_)
    phase[4] = (*deliver_end_ - *construct_end_).ns();
  else if (deliver_end_ && lm.bus_end)
    phase[4] = (*deliver_end_ - *lm.bus_end).ns();
  return out;
}

std::string flow_key(Symbol root, Symbol terminal) {
  std::string key = symbol_name(root);
  if (terminal != root) {
    key += "->";
    key += symbol_name(terminal);
  }
  return key;
}

void FlowHealth::PhaseAgg::add(std::int64_t v) {
  if (n == 0 || v < min_ns) min_ns = v;
  if (n == 0 || v > max_ns) max_ns = v;
  ++n;
  sum_ns += v;
  ++values[v];
}

std::int64_t FlowHealth::PhaseAgg::percentile(double p) const {
  if (n == 0) return 0;
  if (p <= 0.0) return min_ns;
  if (p >= 1.0) return max_ns;
  // Nearest-rank (ceil) over the run-length samples.
  std::uint64_t total = 0;
  for (const auto& [value, count] : values) total += count;
  if (total == 0) return max_ns;
  auto rank = static_cast<std::uint64_t>(p * static_cast<double>(total) + 0.999999);
  rank = std::clamp<std::uint64_t>(rank, 1, total);
  std::uint64_t cumulative = 0;
  for (const auto& [value, count] : values) {
    cumulative += count;
    if (cumulative >= rank) return value;
  }
  return max_ns;
}

std::vector<FlowHealth> phase_breakdown(const std::vector<Span>& spans) {
  std::vector<const Span*> order;
  order.reserve(spans.size());
  for (const Span& s : spans)
    if (s.trace_id != 0) order.push_back(&s);
  std::sort(order.begin(), order.end(), [](const Span* a, const Span* b) {
    return a->trace_id != b->trace_id ? a->trace_id < b->trace_id : a->span_id < b->span_id;
  });

  std::map<std::string, FlowHealth> flows;
  for (std::size_t begin = 0, end = 0; begin < order.size(); begin = end) {
    end = begin + 1;
    while (end < order.size() && order[end]->trace_id == order[begin]->trace_id) ++end;
    if (order[begin]->parent_id != 0) continue;  // root evicted: no sample
    TraceFold fold{*order[begin]};
    for (std::size_t i = begin + 1; i < end; ++i)
      if (fold.add(*order[i])) break;
    const TraceFold::Sample sample = fold.finish();
    FlowHealth& flow = flows[flow_key(sample.root, sample.terminal)];
    ++flow.traces;
    for (std::size_t i = 0; i < sample.phase.size(); ++i)
      if (sample.phase[i]) flow.phases[kBreakdownPhases[i]].add(*sample.phase[i]);
  }
  std::vector<FlowHealth> out;
  out.reserve(flows.size());
  for (auto& [key, flow] : flows) {
    flow.flow = key;
    out.push_back(std::move(flow));
  }
  return out;
}

json::Value flows_to_json(const std::vector<FlowHealth>& flows) {
  json::Array out;
  for (const FlowHealth& f : flows) {
    json::Object o;
    o.emplace_back("flow", f.flow);
    o.emplace_back("traces", f.traces);
    if (f.deadline_ns >= 0) {
      o.emplace_back("deadline_ns", f.deadline_ns);
      o.emplace_back("deadline_miss", f.deadline_miss);
    }
    if (f.bound_ns >= 0) {
      o.emplace_back("bound_ns", f.bound_ns);
      o.emplace_back("bound_miss", f.bound_miss);
    }
    json::Object phases;
    for (const char* phase : kBreakdownPhases) {
      const auto it = f.phases.find(phase);
      if (it == f.phases.end() || it->second.n == 0) continue;
      const FlowHealth::PhaseAgg& agg = it->second;
      json::Object p;
      p.emplace_back("n", agg.n);
      p.emplace_back("exact", agg.exact());
      p.emplace_back("min_ns", agg.min_ns);
      p.emplace_back("p50_ns", agg.percentile(0.50));
      p.emplace_back("p90_ns", agg.percentile(0.90));
      p.emplace_back("p99_ns", agg.percentile(0.99));
      p.emplace_back("max_ns", agg.max_ns);
      p.emplace_back("mean_ns", agg.mean());
      phases.emplace_back(phase, std::move(p));
    }
    o.emplace_back("phases", std::move(phases));
    out.push_back(json::Value{std::move(o)});
  }
  return json::Value{std::move(out)};
}

ContainmentSummary containment_summary(
    const std::vector<std::pair<std::string, TraceRecord>>& records) {
  ContainmentSummary summary;
  for (const auto& [source, r] : records) {
    switch (r.kind) {
      case TraceKind::kFaultInjected:
        ++summary.faults_injected;
        break;
      case TraceKind::kFrameBlocked:
        ++summary.frames_blocked;
        break;
      case TraceKind::kGatewayBlocked: {
        ++summary.gateway_blocked;
        // Reason = detail up to the first " (" qualifier.
        std::string reason = r.detail.substr(0, r.detail.find(" ("));
        if (reason.empty()) reason = "unspecified";
        ++summary.blocked_reasons[reason];
        break;
      }
      case TraceKind::kAutomatonError:
        ++summary.automaton_errors;
        break;
      case TraceKind::kGatewayForwarded:
        ++summary.gateway_forwarded;
        break;
      default:
        break;
    }
  }
  return summary;
}

json::Value containment_to_json(const ContainmentSummary& summary) {
  json::Object o;
  o.emplace_back("faults_injected", summary.faults_injected);
  o.emplace_back("frames_blocked", summary.frames_blocked);
  o.emplace_back("gateway_blocked", summary.gateway_blocked);
  o.emplace_back("automaton_errors", summary.automaton_errors);
  o.emplace_back("gateway_forwarded", summary.gateway_forwarded);
  json::Object reasons;
  for (const auto& [reason, n] : summary.blocked_reasons) reasons.emplace_back(reason, n);
  o.emplace_back("blocked_reasons", std::move(reasons));
  return json::Value{std::move(o)};
}

std::vector<std::string> check_span_integrity(const std::vector<Span>& spans) {
  std::vector<std::string> violations;
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.span_id] = &s;
  for (const Span& s : spans) {
    if (s.end < s.start)
      violations.push_back("span " + std::to_string(s.span_id) + " ends before it starts");
    if (s.parent_id == 0) continue;
    const auto it = by_id.find(s.parent_id);
    if (it == by_id.end()) {
      violations.push_back("span " + std::to_string(s.span_id) + " references missing parent " +
                           std::to_string(s.parent_id));
      continue;
    }
    const Span* parent = it->second;
    if (parent->trace_id != s.trace_id)
      violations.push_back("span " + std::to_string(s.span_id) + " (trace " +
                           std::to_string(s.trace_id) + ") has parent in trace " +
                           std::to_string(parent->trace_id));
    if (parent->start > s.end)
      violations.push_back("span " + std::to_string(s.span_id) +
                           " ends before its parent starts");
  }
  return violations;
}

}  // namespace decos::obs
