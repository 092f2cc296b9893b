// E20 -- Microbenchmarks of the typed periodic-event kernel (timer wheel
// + pooled nodes + in-place callables) against the reference kernel it
// replaced (binary heap + unordered_map<id, std::function>, preserved in
// tests/oracle/reference_kernel.hpp). Four shapes bracket what the TDMA clients
// do: one-shot schedule/fire churn (bus deliveries), schedule/cancel
// (integration timeouts), steady periodic firing (slots, rounds,
// partitions, gateway ticks -- the dominant load), and mixed churn with
// far-future one-shots exercising the overflow heap. google-benchmark
// binary; speedups land in BENCH_e20.json for the CI perf gate.
#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "oracle/reference_kernel.hpp"
#include "sim/simulator.hpp"

using namespace decos;
using namespace decos::bench;
using namespace decos::literals;

namespace {

constexpr Duration kPeriod = 1_ms;

/// 24 bytes of captured state, the size the old clients dragged through
/// std::function (this, slot index, round) -- beyond its small-buffer
/// optimisation, so the reference kernel allocates per schedule exactly
/// like the old clients did.
struct Payload {
  std::uint64_t a = 1;
  std::uint64_t b = 2;
  std::uint64_t c = 3;
};

// -- one-shot schedule + fire (bus-delivery shape) --------------------------

void BM_OneShotWheel(benchmark::State& state) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  const Payload p;
  for (int i = 0; i < 512; ++i)
    sim.schedule_after(Duration::microseconds(2 * (i + 1)), [&fired, p] { fired += p.a; });
  for (auto _ : state) {
    sim.schedule_after(Duration::microseconds(1024), [&fired, p] { fired += p.a; });
    sim.step();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OneShotWheel);

void BM_OneShotReference(benchmark::State& state) {
  sim::ReferenceKernel sim;
  std::uint64_t fired = 0;
  const Payload p;
  for (int i = 0; i < 512; ++i)
    sim.schedule_after(Duration::microseconds(2 * (i + 1)), [&fired, p] { fired += p.a; });
  for (auto _ : state) {
    sim.schedule_after(Duration::microseconds(1024), [&fired, p] { fired += p.a; });
    sim.step();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OneShotReference);

// -- schedule + cancel (integration-timeout shape) --------------------------

void BM_CancelWheel(benchmark::State& state) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  const Payload p;
  for (auto _ : state) {
    const sim::EventId id = sim.schedule_after(1_ms, [&fired, p] { fired += p.a; });
    benchmark::DoNotOptimize(sim.cancel(id));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CancelWheel);

void BM_CancelReference(benchmark::State& state) {
  sim::ReferenceKernel sim;
  std::uint64_t fired = 0;
  const Payload p;
  for (auto _ : state) {
    const sim::ReferenceKernel::EventId id =
        sim.schedule_after(1_ms, [&fired, p] { fired += p.a; });
    benchmark::DoNotOptimize(sim.cancel(id));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CancelReference);

// -- steady periodic firing (TDMA slot / round / partition shape) -----------

void BM_PeriodicWheel(benchmark::State& state) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  const Payload p;
  std::vector<sim::PeriodicTask> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back(sim.schedule_periodic(sim.now() + Duration::microseconds(1 + 15 * i),
                                          kPeriod, [&fired, p] { fired += p.a; }));
  }
  for (auto _ : state) sim.step();
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PeriodicWheel);

void BM_PeriodicReference(benchmark::State& state) {
  sim::ReferenceKernel sim;
  std::uint64_t fired = 0;
  // Self-chaining handler, the old clients' re-arm idiom: every firing
  // re-schedules a fresh std::function copy of itself.
  struct Chain {
    sim::ReferenceKernel* kernel;
    std::uint64_t* fired;
    Payload p;
    void operator()() const {
      *fired += p.a;
      kernel->schedule_at(kernel->now() + kPeriod, *this);
    }
  };
  for (int i = 0; i < 64; ++i) {
    sim.schedule_at(sim.now() + Duration::microseconds(1 + 15 * i),
                    Chain{&sim, &fired, Payload{}});
  }
  for (auto _ : state) sim.step();
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PeriodicReference);

// -- mixed churn with far-future one-shots (overflow-heap shape) ------------

void BM_MixedChurnWheel(benchmark::State& state) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  const Payload p;
  std::vector<sim::PeriodicTask> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back(sim.schedule_periodic(sim.now() + Duration::microseconds(1 + 15 * i),
                                          kPeriod, [&fired, p] { fired += p.a; }));
  }
  std::vector<sim::EventId> far(256);
  for (std::size_t i = 0; i < far.size(); ++i)
    far[i] = sim.schedule_after(10_s, [&fired, p] { fired += p.a; });
  std::size_t cursor = 0;
  for (auto _ : state) {
    sim.cancel(far[cursor]);
    far[cursor] = sim.schedule_after(10_s, [&fired, p] { fired += p.a; });
    cursor = (cursor + 1) & (far.size() - 1);
    sim.step();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MixedChurnWheel);

void BM_MixedChurnReference(benchmark::State& state) {
  sim::ReferenceKernel sim;
  std::uint64_t fired = 0;
  const Payload p;
  struct Chain {
    sim::ReferenceKernel* kernel;
    std::uint64_t* fired;
    Payload p;
    void operator()() const {
      *fired += p.a;
      kernel->schedule_at(kernel->now() + kPeriod, *this);
    }
  };
  for (int i = 0; i < 64; ++i) {
    sim.schedule_at(sim.now() + Duration::microseconds(1 + 15 * i),
                    Chain{&sim, &fired, Payload{}});
  }
  std::vector<sim::ReferenceKernel::EventId> far(256);
  for (std::size_t i = 0; i < far.size(); ++i)
    far[i] = sim.schedule_after(10_s, [&fired, p] { fired += p.a; });
  std::size_t cursor = 0;
  for (auto _ : state) {
    sim.cancel(far[cursor]);
    far[cursor] = sim.schedule_after(10_s, [&fired, p] { fired += p.a; });
    cursor = (cursor + 1) & (far.size() - 1);
    sim.step();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MixedChurnReference);

// Forwards google-benchmark's console output into the harness (same
// pattern as bench_e11_micro) and collects per-benchmark timings.
class HarnessReporter : public benchmark::ConsoleReporter {
 public:
  explicit HarnessReporter(Harness& harness) : harness_(harness) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      harness_.note_line(run.benchmark_name());
      obs::json::Object o;
      o.emplace_back("name", run.benchmark_name());
      o.emplace_back("iterations", static_cast<std::uint64_t>(run.iterations));
      o.emplace_back("real_ns", run.GetAdjustedRealTime());
      o.emplace_back("cpu_ns", run.GetAdjustedCPUTime());
      results_.push_back(obs::json::Value{std::move(o)});
      cpu_ns_[run.benchmark_name()] = run.GetAdjustedCPUTime();
    }
  }

  obs::json::Array take_results() { return std::move(results_); }

  /// reference cpu / wheel cpu (>1 means the new kernel is faster).
  double speedup(const std::string& wheel, const std::string& reference) const {
    const auto a = cpu_ns_.find(wheel);
    const auto b = cpu_ns_.find(reference);
    if (a == cpu_ns_.end() || b == cpu_ns_.end() || a->second <= 0.0) return 0.0;
    return b->second / a->second;
  }

 private:
  Harness& harness_;
  obs::json::Array results_;
  std::map<std::string, double> cpu_ns_;
};

}  // namespace

int main(int argc, char** argv) {
  Harness harness{argc, argv, "e20"};
  // Google benchmark must not see the harness flags; it rejects unknown
  // arguments. The harness's --filter maps onto --benchmark_filter (this
  // binary's microbenchmarks run serially; google-benchmark owns timing).
  std::string filter_flag = "--benchmark_filter=" + harness.filter();
  std::vector<char*> bench_argv{argv[0]};
  if (!harness.filter().empty()) bench_argv.push_back(filter_flag.data());
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  HarnessReporter reporter{harness};
  benchmark::RunSpecifiedBenchmarks(&reporter);
  obs::json::Object speedups;
  speedups.emplace_back("kernel_oneshot",
                        reporter.speedup("BM_OneShotWheel", "BM_OneShotReference"));
  speedups.emplace_back("kernel_cancel", reporter.speedup("BM_CancelWheel", "BM_CancelReference"));
  speedups.emplace_back("kernel_periodic",
                        reporter.speedup("BM_PeriodicWheel", "BM_PeriodicReference"));
  speedups.emplace_back("kernel_churn",
                        reporter.speedup("BM_MixedChurnWheel", "BM_MixedChurnReference"));
  harness.set_json("speedups", obs::json::Value{std::move(speedups)});
  harness.set_json("benchmarks", obs::json::Value{reporter.take_results()});
  benchmark::Shutdown();
  return 0;
}
