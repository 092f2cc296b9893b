// Result reporting and host facts (what every run prints, and the machine
// it ran on), plus the clock and seed helpers the workloads share.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One run's outcome. print() writes `info` lines first and the result
/// object last, on one line: {"correct", "attempted", "failed", "metrics"}.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> info;
  std::vector<int> pinned_cores;  // every core a measured thread was pinned to

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// A free-form line printed before the result ("<tag> <text>").
  void note(const std::string& tag, const std::string& text) { info.push_back(tag + " " + text); }
  /// A check that must hold; a failure marks the run incorrect.
  void check(bool ok, const std::string& what);

  /// Put the metrics in `names` order; a metric the workload does not
  /// exercise reads 0 (e.g. sim.events on a live workload).
  void complete(const std::vector<std::pair<std::string, std::string>>& names);

  void print() const;
};

/// steady_clock now, in ns.
std::int64_t now_ns();

/// SplitMix64 step: the benchmark's only source of seeded variation.
std::uint64_t splitmix64(std::uint64_t& state);

/// printf into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Host facts as one JSON object: nproc, CPU model, compiler, build type,
/// kernel release, the cores the process may use and the pinned core ids.
std::string host_facts(std::size_t allowed_cores, const std::vector<int>& pinned_cores);

/// The CPUs this process may run on, ascending.
std::vector<int> allowed_cores();

/// Pin the calling thread to `cores`. False if the kernel refused.
bool pin_current_thread(const std::vector<int>& cores);

struct CorePair {
  int first = -1;  // -1: fewer than two cores, nothing pinned
  int second = -1;
  double rtt_ns = 0.0;
};

/// Cache-line round trip between cores `a` (the calling thread, left
/// pinned there) and `b`, in ns.
double round_trip_ns(int a, int b);

/// The pair of `cores` with the fastest cache-line round trip. A VM's
/// vCPUs may or may not sit on physical cores that share a last-level
/// cache, and the host moves them over time; a cross-core handoff
/// between cores that do not share one costs several times more.
CorePair best_pair(const std::vector<int>& cores);

}  // namespace perfbench
