// decotrace -- offline reader for DECOS observability dumps.
//
// Consumes the JSONL dumps written by the benches/examples (--trace-out)
// and prints per-flow phase latency percentiles, fault-containment
// summaries and metrics snapshots. Multiple dump files are merged: spans
// and records concatenate (trace ids are disambiguated per cell), metric
// values union (counters/histograms sum, gauges take the high-water
// maximum) -- so a CI job can run several benches and check instrument
// coverage across their union.
//
// Flows come from obs::phase_breakdown, which runs the same TraceFold
// as the benches in-process and the streaming aggregator behind decomon,
// so the readers agree to the nanosecond; --json renders them through
// the shared obs::flows_to_json. --check-bounds reads the bounds file
// with obs::load_flow_bounds, the loader behind --telemetry-bounds.
//
// Exit status: 0 = ok; 1 = --fail-dead found dead instruments or --check
// found span-integrity violations; 2 = usage / IO / parse failure.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"

namespace {

using namespace decos;

constexpr const char* kUsage =
    "usage: decotrace [options] <dump.jsonl>...\n"
    "\n"
    "Reads observability dumps (JSONL) and reports:\n"
    "  per-flow phase latency percentiles (ingress/dissect/repo_wait/\n"
    "  construct/delivery/total), fault-containment summary, metrics.\n"
    "\n"
    "  --json             machine-readable output (one JSON object)\n"
    "  --perfetto FILE    also write a Chrome trace-event file (load in\n"
    "                     ui.perfetto.dev or chrome://tracing)\n"
    "  --fail-dead        exit 1 if any registered instrument family was\n"
    "                     never updated across all inputs; per-gateway/VN\n"
    "                     instances collapse (gw.e6.forwarded -> gw.*.forwarded)\n"
    "  --check            exit 1 on span parent/child integrity violations\n"
    "  --check-bounds F   read static per-flow latency bounds from F (the\n"
    "                     output of `declint --format json`) and exit 1 if\n"
    "                     any traced flow's observed max total latency\n"
    "                     exceeds its bound, or no flow matched at all\n";

struct Options {
  bool json = false;
  bool fail_dead = false;
  bool check = false;
  std::string bounds_file;
  std::string perfetto_out;
  std::vector<std::string> files;
};

const char* kind_name(obs::InstrumentKind kind) {
  switch (kind) {
    case obs::InstrumentKind::kCounter: return "counter";
    case obs::InstrumentKind::kGauge: return "gauge";
    case obs::InstrumentKind::kHistogram: return "histogram";
  }
  return "?";
}

obs::json::Value metrics_to_json(const obs::MetricsSnapshot& snapshot) {
  obs::json::Array out;
  for (const obs::MetricValue& m : snapshot.entries) {
    obs::json::Object o;
    o.emplace_back("name", m.name);
    o.emplace_back("kind", kind_name(m.kind));
    o.emplace_back("deterministic", m.deterministic);
    o.emplace_back("updates", m.updates);
    switch (m.kind) {
      case obs::InstrumentKind::kCounter:
        o.emplace_back("value", m.value);
        break;
      case obs::InstrumentKind::kGauge:
        o.emplace_back("value", m.value);
        o.emplace_back("high_water", m.high_water);
        break;
      case obs::InstrumentKind::kHistogram:
        o.emplace_back("count", m.count);
        o.emplace_back("sum", m.sum);
        o.emplace_back("min", m.min);
        o.emplace_back("max", m.max);
        o.emplace_back("p50", m.p50);
        o.emplace_back("p90", m.p90);
        o.emplace_back("p99", m.p99);
        if (m.sample_period != 1) {
          o.emplace_back("sample_period", std::int64_t{m.sample_period});
          o.emplace_back("estimated_count",
                         static_cast<std::int64_t>(m.count * std::uint64_t{m.sample_period}));
        }
        break;
    }
    out.push_back(obs::json::Value{std::move(o)});
  }
  return obs::json::Value{std::move(out)};
}

// Per-instance instruments ("gw.e6.forwarded", "vn.comfort.queue_depth")
// carry the gateway/VN name in the second segment, so the same logical
// instrument registers under a different name in every bench. The dead
// check therefore works on *families*: the instance segment collapses to
// '*', and a family is dead only if no member in any input ever updated.
// A bench exercising value filtering thus covers gw.*.suppressed.value
// for the whole union, whichever gateway name it used.
std::string instrument_family(const std::string& name) {
  if (name.rfind("gw.", 0) == 0 || name.rfind("vn.", 0) == 0) {
    const std::size_t instance_end = name.find('.', 3);
    if (instance_end != std::string::npos)
      return name.substr(0, 3) + "*" + name.substr(instance_end);
  }
  return name;
}

std::vector<std::string> dead_families(const obs::MetricsSnapshot& snapshot) {
  std::map<std::string, std::uint64_t> updates;
  for (const obs::MetricValue& m : snapshot.entries) updates[instrument_family(m.name)] += m.updates;
  std::vector<std::string> dead;
  for (const auto& [family, n] : updates)
    if (n == 0) dead.push_back(family);
  return dead;
}

void print_flows(const std::vector<obs::FlowHealth>& flows) {
  std::printf("-- flows --\n");
  if (flows.empty()) {
    std::printf("(no traced flows)\n");
    return;
  }
  for (const obs::FlowHealth& flow : flows) {
    std::printf("%s  (%llu traces)\n", flow.flow.c_str(),
                static_cast<unsigned long long>(flow.traces));
    std::printf("  %-10s %8s %12s %12s %12s %12s\n", "phase", "n", "p50_ns", "p99_ns", "max_ns",
                "mean_ns");
    for (const char* phase : obs::kBreakdownPhases) {
      const auto it = flow.phases.find(phase);
      if (it == flow.phases.end() || it->second.n == 0) continue;
      const obs::FlowHealth::PhaseAgg& agg = it->second;
      std::printf("  %-10s %8llu %12lld %12lld %12lld %12.1f\n", phase,
                  static_cast<unsigned long long>(agg.n),
                  static_cast<long long>(agg.percentile(0.50)),
                  static_cast<long long>(agg.percentile(0.99)),
                  static_cast<long long>(agg.max_ns), agg.mean());
    }
  }
}

void print_containment(const obs::ContainmentSummary& summary) {
  std::printf("-- containment --\n");
  std::printf("faults_injected=%llu frames_blocked=%llu gateway_blocked=%llu "
              "automaton_errors=%llu gateway_forwarded=%llu\n",
              static_cast<unsigned long long>(summary.faults_injected),
              static_cast<unsigned long long>(summary.frames_blocked),
              static_cast<unsigned long long>(summary.gateway_blocked),
              static_cast<unsigned long long>(summary.automaton_errors),
              static_cast<unsigned long long>(summary.gateway_forwarded));
  for (const auto& [reason, n] : summary.blocked_reasons)
    std::printf("  blocked: %-40s %llu\n", reason.c_str(), static_cast<unsigned long long>(n));
}

void print_metrics(const obs::MetricsSnapshot& snapshot) {
  std::printf("-- metrics --\n");
  for (const obs::MetricValue& m : snapshot.entries) {
    switch (m.kind) {
      case obs::InstrumentKind::kCounter:
        std::printf("%-44s counter    %lld\n", m.name.c_str(), static_cast<long long>(m.value));
        break;
      case obs::InstrumentKind::kGauge:
        std::printf("%-44s gauge      %lld (high %lld)\n", m.name.c_str(),
                    static_cast<long long>(m.value), static_cast<long long>(m.high_water));
        break;
      case obs::InstrumentKind::kHistogram: {
        std::string notes;
        if (m.sample_period != 1)
          notes = " (1-in-" + std::to_string(m.sample_period) +
                  " sampled, ~" + std::to_string(m.count * std::uint64_t{m.sample_period}) +
                  " events)";
        if (!m.deterministic) notes += " (host time)";
        std::printf("%-44s histogram  n=%llu p50=%lld p99=%lld max=%lld%s\n", m.name.c_str(),
                    static_cast<unsigned long long>(m.count), static_cast<long long>(m.p50),
                    static_cast<long long>(m.p99), static_cast<long long>(m.max), notes.c_str());
        break;
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      options.json = true;
    } else if (arg == "--fail-dead") {
      options.fail_dead = true;
    } else if (arg == "--check") {
      options.check = true;
    } else if (arg == "--check-bounds") {
      if (++i >= argc) {
        std::cerr << "--check-bounds requires a file argument\n" << kUsage;
        return 2;
      }
      options.bounds_file = argv[i];
    } else if (arg == "--perfetto") {
      if (++i >= argc) {
        std::cerr << "--perfetto requires a file argument\n" << kUsage;
        return 2;
      }
      options.perfetto_out = argv[i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option '" << arg << "'\n" << kUsage;
      return 2;
    } else {
      options.files.push_back(arg);
    }
  }
  if (options.files.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  // Merge all inputs into one dump (cells stay separate; all_spans()
  // disambiguates their id ranges).
  obs::Dump merged;
  for (const std::string& path : options.files) {
    std::ifstream in{path};
    if (!in) {
      std::cerr << path << ": cannot open file\n";
      return 2;
    }
    auto dump = obs::load_jsonl(in);
    if (!dump.ok()) {
      std::cerr << path << ": " << dump.error().message << "\n";
      return 2;
    }
    for (auto& cell : dump.value().cells) merged.cells.push_back(std::move(cell));
  }

  const std::vector<obs::Span> spans = merged.all_spans();
  const auto records = merged.all_records();
  const std::vector<obs::FlowHealth> flows = obs::phase_breakdown(spans);
  const obs::ContainmentSummary containment = obs::containment_summary(records);
  const obs::MetricsSnapshot metrics = merged.merged_metrics();
  const std::vector<std::string> dead = dead_families(metrics);
  const std::vector<std::string> violations = obs::check_span_integrity(spans);

  if (!options.perfetto_out.empty()) {
    std::ofstream out{options.perfetto_out};
    if (!out) {
      std::cerr << options.perfetto_out << ": cannot open for writing\n";
      return 2;
    }
    obs::write_chrome_trace(out, spans, records);
  }

  if (options.json) {
    obs::json::Object o;
    {
      obs::json::Array files;
      for (const std::string& f : options.files) files.push_back(obs::json::Value{f});
      o.emplace_back("files", std::move(files));
    }
    o.emplace_back("spans", spans.size());
    o.emplace_back("records", records.size());
    o.emplace_back("flows", obs::flows_to_json(flows));
    o.emplace_back("containment", obs::containment_to_json(containment));
    o.emplace_back("metrics", metrics_to_json(metrics));
    {
      obs::json::Array d;
      for (const std::string& name : dead) d.push_back(obs::json::Value{name});
      o.emplace_back("dead_instruments", std::move(d));
    }
    {
      obs::json::Array v;
      for (const std::string& msg : violations) v.push_back(obs::json::Value{msg});
      o.emplace_back("integrity_violations", std::move(v));
    }
    std::cout << obs::json::Value{std::move(o)}.dump() << "\n";
  } else {
    std::printf("decotrace: %zu file(s), %zu cell(s), %zu spans, %zu records\n",
                options.files.size(), merged.cells.size(), spans.size(), records.size());
    print_flows(flows);
    print_containment(containment);
    print_metrics(metrics);
    if (!dead.empty()) {
      std::printf("-- dead instruments --\n");
      for (const std::string& name : dead) std::printf("  %s\n", name.c_str());
    }
    for (const std::string& msg : violations)
      std::fprintf(stderr, "integrity: %s\n", msg.c_str());
  }

  if (options.check && !violations.empty()) {
    std::cerr << "decotrace: " << violations.size() << " span integrity violation(s)\n";
    return 1;
  }
  if (!options.bounds_file.empty()) {
    std::ifstream in{options.bounds_file};
    if (!in) {
      std::cerr << options.bounds_file << ": cannot open file\n";
      return 2;
    }
    const auto bounds = obs::load_flow_bounds(in);
    if (!bounds.ok()) {
      std::cerr << options.bounds_file << ": " << bounds.error().message << "\n";
      return 2;
    }
    std::size_t checked = 0, exceeded = 0;
    for (const auto& [key, bound_ns] : bounds.value()) {
      // Exact flow-key match first; otherwise fall back to the root send
      // message (the part before "->"). A flow whose consumer is not an
      // attached port is keyed by its delivery slot in the trace
      // ("msgA0->slot 9"), but it is still the flow rooted at msgA0.
      const std::string root = key.substr(0, key.find("->"));
      const obs::FlowHealth* match = nullptr;
      std::size_t candidates = 0;
      for (const obs::FlowHealth& flow : flows) {
        if (flow.flow == key) {
          match = &flow;
          candidates = 1;
          break;
        }
        if (flow.flow != root && flow.flow.rfind(root + "->", 0) != 0) continue;
        ++candidates;
        match = &flow;
      }
      if (candidates != 1) continue;  // ambiguous root: no safe join
      const auto total = match->phases.find("total");
      if (total == match->phases.end() || total->second.n == 0) continue;
      ++checked;
      const std::int64_t observed = total->second.max_ns;
      const bool over = observed > bound_ns;
      if (over) ++exceeded;
      std::fprintf(over ? stderr : stdout,
                   "bounds: flow '%s' (traced as '%s') observed max %lld ns %s static bound "
                   "%lld ns\n",
                   key.c_str(), match->flow.c_str(), static_cast<long long>(observed),
                   over ? "EXCEEDS" : "<=", static_cast<long long>(bound_ns));
    }
    if (checked == 0) {
      std::cerr << "decotrace: --check-bounds matched no traced flow against " << bounds.value().size()
                << " static bound(s)\n";
      return 1;
    }
    if (exceeded > 0) {
      std::cerr << "decotrace: " << exceeded << " of " << checked
                << " flow(s) exceed their static latency bound\n";
      return 1;
    }
    std::printf("bounds: %zu flow(s) within their static bounds\n", checked);
  }
  if (options.fail_dead && !dead.empty()) {
    std::cerr << "decotrace: " << dead.size() << " instrument(s) never updated";
    for (const std::string& name : dead) std::cerr << " " << name;
    std::cerr << "\n";
    return 1;
  }
  return 0;
}
