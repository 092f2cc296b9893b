// decomon -- streaming monitor for DECOS windowed telemetry.
//
// Tails the JSONL delta stream written by the benches (--telemetry-out)
// or the future rt runtime, folds windows into whole-run per-flow
// health, and renders a top-like table: traces, phase p50/p99,
// deadline- and bound-miss counters. The stream's per-flow samples come
// from the same obs::TraceFold decotrace runs post-hoc, and both CLIs
// report obs::FlowHealth (one percentile, one JSON renderer) -- so on a
// loss-free stream (evicted == 0, every phase exact) decomon's numbers
// equal decotrace's to the nanosecond.
//
// Modes:
//   --once    read the whole input, print one report, exit
//   --watch   follow a growing file, redraw every --interval ms
//   --json    machine-readable report (one JSON object)
//   --expo    Prometheus-style text exposition snapshot instead of the
//             table (counters/gauges/histograms + flow health)
//
// Exit status: 0 = healthy; 1 = any flow missed its d_acc deadline or
// static bound (or --fail-empty saw no flows); 2 = usage / IO / parse
// failure.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/exposition.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"

namespace {

using namespace decos;

constexpr const char* kUsage =
    "usage: decomon [options] <stream.jsonl | ->\n"
    "\n"
    "Monitors a DECOS windowed telemetry stream (bench --telemetry-out;\n"
    "'-' reads stdin) and reports per-flow SLO health: traces, phase\n"
    "p50/p99, deadline misses (d_acc) and static-bound misses (declint).\n"
    "\n"
    "  --once           read everything, report once, exit (default when\n"
    "                   the input is stdin or --watch is not given)\n"
    "  --watch          follow the file, redraw every --interval ms until\n"
    "                   interrupted (or --max-updates redraws)\n"
    "  --interval MS    watch redraw period in milliseconds (default 1000)\n"
    "  --max-updates N  stop watching after N redraws (testing hook)\n"
    "  --json           machine-readable report (one JSON object)\n"
    "  --expo           Prometheus-style exposition snapshot\n"
    "  --phases         per-phase detail rows under each flow\n"
    "  --fail-empty     exit 1 when the stream contains no flows\n";

struct Options {
  bool once = false;
  bool watch = false;
  bool json = false;
  bool expo = false;
  bool phases = false;
  bool fail_empty = false;
  long interval_ms = 1000;
  long max_updates = -1;
  std::string file;
};

std::string format_ns(std::int64_t ns) {
  char buf[48];
  if (ns >= 1'000'000'000)
    std::snprintf(buf, sizeof buf, "%.3fs", static_cast<double>(ns) / 1e9);
  else if (ns >= 1'000'000)
    std::snprintf(buf, sizeof buf, "%.3fms", static_cast<double>(ns) / 1e6);
  else if (ns >= 1'000)
    std::snprintf(buf, sizeof buf, "%.3fus", static_cast<double>(ns) / 1e3);
  else
    std::snprintf(buf, sizeof buf, "%lldns", static_cast<long long>(ns));
  return buf;
}

struct Report {
  std::vector<obs::TelemetryStream> streams;
  std::vector<obs::FlowHealth> flows;
  std::uint64_t windows = 0;
  std::uint64_t spans_dropped = 0;
  std::uint64_t evicted = 0;
  std::uint64_t late = 0;
  std::uint64_t misses = 0;

  static Report build(std::vector<obs::TelemetryStream> streams) {
    Report r;
    r.streams = std::move(streams);
    r.flows = obs::flow_health(r.streams);
    for (const obs::TelemetryStream& s : r.streams) {
      r.windows += s.windows.size();
      for (const obs::TelemetryWindow& w : s.windows) {
        r.spans_dropped += w.spans_dropped;
        r.evicted += w.evicted;
        r.late += w.late;
      }
    }
    for (const obs::FlowHealth& f : r.flows) r.misses += f.deadline_miss + f.bound_miss;
    return r;
  }
};

void print_table(const Report& r, bool phases) {
  std::string labels;
  for (const obs::TelemetryStream& s : r.streams) {
    if (s.label.empty()) continue;
    if (!labels.empty()) labels += ",";
    labels += s.label;
  }
  std::printf("decomon: %s  windows=%llu  spans_dropped=%llu  evicted=%llu  late=%llu\n",
              labels.empty() ? "(unlabelled stream)" : labels.c_str(),
              static_cast<unsigned long long>(r.windows),
              static_cast<unsigned long long>(r.spans_dropped),
              static_cast<unsigned long long>(r.evicted), static_cast<unsigned long long>(r.late));
  std::printf("%-28s %8s %12s %12s %12s %6s %12s %6s  %s\n", "FLOW", "N", "P50", "P99", "DEADLINE",
              "MISS", "BOUND", "MISS", "HEALTH");
  for (const obs::FlowHealth& f : r.flows) {
    const auto total = f.phases.find("total");
    const bool exact = total != f.phases.end() && total->second.exact();
    const std::int64_t p50 = total != f.phases.end() ? total->second.percentile(0.50) : 0;
    const std::int64_t p99 = total != f.phases.end() ? total->second.percentile(0.99) : 0;
    const bool sick = f.deadline_miss + f.bound_miss > 0;
    std::printf("%-28s %8llu %12s %12s %12s %6llu %12s %6llu  %s%s\n", f.flow.c_str(),
                static_cast<unsigned long long>(f.traces), format_ns(p50).c_str(),
                format_ns(p99).c_str(),
                f.deadline_ns >= 0 ? format_ns(f.deadline_ns).c_str() : "-",
                static_cast<unsigned long long>(f.deadline_miss),
                f.bound_ns >= 0 ? format_ns(f.bound_ns).c_str() : "-",
                static_cast<unsigned long long>(f.bound_miss), sick ? "MISS" : "OK",
                exact ? "" : " (approx)");
    if (!phases) continue;
    for (const char* phase : obs::kBreakdownPhases) {
      const auto it = f.phases.find(phase);
      if (it == f.phases.end() || it->second.n == 0) continue;
      std::printf("  %-26s %8llu %12s %12s  min=%s max=%s\n", phase,
                  static_cast<unsigned long long>(it->second.n),
                  format_ns(it->second.percentile(0.50)).c_str(),
                  format_ns(it->second.percentile(0.99)).c_str(),
                  format_ns(it->second.min_ns).c_str(), format_ns(it->second.max_ns).c_str());
    }
  }
  if (r.flows.empty()) std::printf("(no flows yet)\n");
}

void print_json(const Report& r) {
  obs::json::Object root;
  root.emplace_back("windows", static_cast<std::int64_t>(r.windows));
  root.emplace_back("spans_dropped", static_cast<std::int64_t>(r.spans_dropped));
  root.emplace_back("evicted", static_cast<std::int64_t>(r.evicted));
  root.emplace_back("late", static_cast<std::int64_t>(r.late));
  root.emplace_back("slo_breach", r.misses > 0);
  root.emplace_back("flows", obs::flows_to_json(r.flows));
  std::printf("%s\n", obs::json::Value{std::move(root)}.dump().c_str());
}

void print_expo(const Report& r) {
  const obs::MetricsSnapshot metrics = obs::accumulate_metrics(r.streams);
  std::ostringstream out;
  obs::write_exposition(out, metrics, r.flows);
  std::fputs(out.str().c_str(), stdout);
}

int render(const Report& r, const Options& options) {
  if (options.expo)
    print_expo(r);
  else if (options.json)
    print_json(r);
  else
    print_table(r, options.phases);
  if (options.fail_empty && r.flows.empty()) {
    std::fprintf(stderr, "decomon: stream contains no flows\n");
    return 1;
  }
  return r.misses > 0 ? 1 : 0;
}

int run_once(const Options& options) {
  decos::Result<std::vector<obs::TelemetryStream>> streams{std::vector<obs::TelemetryStream>{}};
  if (options.file == "-") {
    streams = obs::load_telemetry(std::cin);
  } else {
    std::ifstream in{options.file};
    if (!in) {
      std::fprintf(stderr, "decomon: cannot open %s\n", options.file.c_str());
      return 2;
    }
    streams = obs::load_telemetry(in);
  }
  if (!streams.ok()) {
    std::fprintf(stderr, "decomon: %s\n", streams.error().message.c_str());
    return 2;
  }
  return render(Report::build(std::move(streams.value())), options);
}

int run_watch(const Options& options) {
  long updates = 0;
  int status = 0;
  while (options.max_updates < 0 || updates < options.max_updates) {
    std::ifstream in{options.file};
    if (!in) {
      std::fprintf(stderr, "decomon: cannot open %s\n", options.file.c_str());
      return 2;
    }
    auto streams = obs::load_telemetry(in);
    if (!streams.ok()) {
      std::fprintf(stderr, "decomon: %s\n", streams.error().message.c_str());
      return 2;
    }
    if (updates > 0) std::printf("\x1b[2J\x1b[H");  // clear + home
    status = render(Report::build(std::move(streams.value())), options);
    std::fflush(stdout);
    ++updates;
    if (options.max_updates >= 0 && updates >= options.max_updates) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(options.interval_ms));
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n%s", flag, kUsage);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--once") {
      options.once = true;
    } else if (arg == "--watch") {
      options.watch = true;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--expo") {
      options.expo = true;
    } else if (arg == "--phases") {
      options.phases = true;
    } else if (arg == "--fail-empty") {
      options.fail_empty = true;
    } else if (arg == "--interval") {
      options.interval_ms = std::strtol(value("--interval").c_str(), nullptr, 10);
      if (options.interval_ms < 1) options.interval_ms = 1;
    } else if (arg == "--max-updates") {
      options.max_updates = std::strtol(value("--max-updates").c_str(), nullptr, 10);
    } else if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::fprintf(stderr, "unknown option %s\n%s", arg.c_str(), kUsage);
      return 2;
    } else if (options.file.empty()) {
      options.file = arg;
    } else {
      std::fprintf(stderr, "decomon reads exactly one stream\n%s", kUsage);
      return 2;
    }
  }
  if (options.file.empty()) {
    std::fprintf(stderr, "no input\n%s", kUsage);
    return 2;
  }
  if (options.once && options.watch) {
    std::fprintf(stderr, "--once and --watch are mutually exclusive\n%s", kUsage);
    return 2;
  }
  if (options.watch && options.file == "-") {
    std::fprintf(stderr, "--watch needs a file (stdin is read once)\n%s", kUsage);
    return 2;
  }
  return options.watch ? run_watch(options) : run_once(options);
}
