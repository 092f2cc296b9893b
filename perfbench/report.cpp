#include "report.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += format("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    std::size_t start = colon + 1;
    while (start < line.size() && line[start] == ' ') ++start;
    return line.substr(start);
  }
  return "unknown";
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[1024];
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

void Report::check(bool ok, const std::string& what) {
  note("check", std::string{ok ? "ok   " : "FAIL "} + what);
  if (!ok) correct = false;
}

void Report::complete(const std::vector<std::pair<std::string, std::string>>& names) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : names) {
    Metric m{name, 0.0, unit};
    for (const Metric& have : metrics)
      if (have.name == name) m = have;
    ordered.push_back(std::move(m));
  }
  metrics = std::move(ordered);
}

void Report::print() const {
  for (const std::string& line : info) std::printf("%s\n", line.c_str());
  std::string metrics_json;
  for (const Metric& m : metrics) {
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += json_string(m.name) + ": {\"value\": " + format("%.17g", m.value) +
                    ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json.c_str());
  std::fflush(stdout);
}

std::vector<int> allowed_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cores;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cores;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cores.push_back(c);
  return cores;
}

bool pin_current_thread(const std::vector<int>& cores) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cores) CPU_SET(c, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
}

double round_trip_ns(int a, int b) {
  constexpr long kRounds = 2000;
  struct alignas(64) Line {
    std::atomic<long> value{0};
  };
  Line ping;
  Line pong;
  std::thread echo{[&] {
    pin_current_thread({b});
    for (long i = 1; i <= kRounds + 1; ++i) {
      while (ping.value.load(std::memory_order_acquire) != i) {
      }
      pong.value.store(i, std::memory_order_release);
    }
  }};
  pin_current_thread({a});
  std::chrono::steady_clock::time_point t0;
  for (long i = 1; i <= kRounds + 1; ++i) {
    if (i == 2) t0 = std::chrono::steady_clock::now();  // round 1 waits for the echo thread
    ping.value.store(i, std::memory_order_release);
    while (pong.value.load(std::memory_order_acquire) != i) {
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  echo.join();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / kRounds;
}

CorePair best_pair(const std::vector<int>& cores) {
  CorePair best;
  for (std::size_t i = 0; i < cores.size(); ++i)
    for (std::size_t j = i + 1; j < cores.size(); ++j) {
      const double rtt = round_trip_ns(cores[i], cores[j]);
      if (best.first < 0 || rtt < best.rtt_ns) best = {cores[i], cores[j], rtt};
    }
  return best;
}

std::string host_facts(std::size_t allowed_cores, const std::vector<int>& pinned_cores) {
  utsname uts{};
  uname(&uts);
  std::string cores;
  for (const int c : pinned_cores) cores += (cores.empty() ? "" : ", ") + std::to_string(c);
#ifdef __clang__
  const std::string compiler = std::string{"clang "} + __clang_version__;
#else
  const std::string compiler = std::string{"gcc "} + __VERSION__;
#endif
  return format("{\"nproc\": %ld, \"allowed_cores\": %zu, \"cpu\": %s, \"compiler\": %s, "
                "\"build_type\": %s, \"kernel\": %s, \"pinned_cores\": [%s]}",
                sysconf(_SC_NPROCESSORS_ONLN), allowed_cores,
                json_string(cpu_model()).c_str(), json_string(compiler).c_str(),
                json_string(PERFBENCH_BUILD_TYPE).c_str(), json_string(uts.release).c_str(),
                cores.c_str());
}

}  // namespace perfbench
