// perfbench -- the repository benchmark.
//
//   perfbench --workload <relay_small|fanin_wide|sim_cluster> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints informational lines (host facts, per-phase figures, checks) and,
// as its last line, one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Exit 0 = result printed, 2 = usage error, 1 = the run
// could not complete.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "live.hpp"
#include "report.hpp"
#include "sim_cluster.hpp"

namespace {

using MetricNames = std::vector<std::pair<std::string, std::string>>;

// Every workload prints every metric of its mode (BENCHMARK.json lists
// the same names); perfbench/README.md defines them per workload.
const MetricNames kEndToEnd = {
    {"throughput_fps", "1/s"}, {"p50_us", "us"}, {"p99_us", "us"}, {"setup_s", "s"}};
const MetricNames kPerLayer = {
    {"rt.ring_claim_ns_per_frame", "ns"}, {"rt.poll_ns_per_frame", "ns"},
    {"rt.frames_per_poll", "count"},      {"rt.send_ns", "ns"},
    {"rt.idle_poll_share", "ratio"},      {"gw.frame_ns", "ns"},
    {"spec.decode_ns", "ns"},             {"spec.encode_ns", "ns"},
    {"gw.dissect_ns.p50", "ns"},          {"gw.construct_ns.p50", "ns"},
    {"gw.forwarded", "count"},            {"core.messages_in", "count"},
    {"core.admitted_share", "ratio"},     {"core.blocked_value", "count"},
    {"rt.rx_unknown", "count"},           {"vn.rx_dropped", "count"},
    {"ring.ingress_drops", "count"},      {"gen.lateness_us.p99", "us"},
    {"obs.overhead_share", "ratio"},      {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},           {"sim.handler_ns.p50", "ns"},
    {"sim.kernel_ns_per_event", "ns"},    {"sim.speedup_2w", "x"},
    {"tt.frames_delivered", "count"},     {"tt.frames_blocked", "count"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload relay_small|fanin_wide|sim_cluster --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_dir = ".";
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(arg + " requires a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoll(value.c_str(), &end, 10);
      if (*end != '\0' || seed < 0) usage("--seed expects a non-negative integer");
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      // A live run may extend to twice its budget; relay_small carries its
      // sequence number in an int32 field, which 2 x 120 s still fits.
      if (*end != '\0' || !(seconds > 0.0) || seconds > 120.0)
        usage("--seconds expects a number in (0, 120]");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      trace = value == "1" ? 1 : 0;
    } else if (arg == "--trace-dir") {
      trace_dir = value;
    } else {
      usage("unknown option " + arg);
    }
  }
  if (workload.empty() || seed < 0 || seconds <= 0.0 || trace < 0)
    usage("--workload, --seed, --seconds and --trace are required");

  const std::vector<int> cores = perfbench::allowed_cores();

  try {
    perfbench::Report report;
    if (workload == "relay_small" || workload == "fanin_wide") {
      perfbench::LiveConfig config;
      config.kind = workload == "relay_small" ? perfbench::LiveKind::kRelaySmall
                                              : perfbench::LiveKind::kFaninWide;
      config.seed = static_cast<std::uint64_t>(seed);
      config.seconds = seconds;
      config.trace = trace == 1;
      config.cores = cores;
      config.trace_dir = trace_dir;
      report = perfbench::run_live(config);
    } else if (workload == "sim_cluster") {
      perfbench::SimConfig config;
      config.seed = static_cast<std::uint64_t>(seed);
      config.seconds = seconds;
      config.trace = trace == 1;
      config.cores = cores;
      report = perfbench::run_sim_cluster(config);
    } else {
      usage("unknown workload '" + workload + "'");
    }
    report.complete(trace == 1 ? kPerLayer : kEndToEnd);
    std::printf("host %s\n", perfbench::host_facts(cores.size(), report.pinned_cores).c_str());
    report.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
