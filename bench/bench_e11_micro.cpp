// E11 -- Microbenchmarks of the gateway engine stages (paper Fig. 4):
// link-spec parsing, message encode/decode, the receive path (timed
// automaton + dissect + store + transfer rule), the construct path, and
// raw repository / automaton operation costs. google-benchmark binary.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/repository.hpp"
#include "oracle/fieldwalk_codec.hpp"
#include "spec/linkspec_xml.hpp"
#include "spec/message.hpp"
#include "ta/interpreter.hpp"
#include "vn/port.hpp"

using namespace decos;
using namespace decos::bench;
using namespace decos::literals;

namespace {

spec::MessageSpec wide_message(int elements, int fields_per_element) {
  spec::MessageSpec ms{"wide"};
  spec::ElementSpec key;
  key.name = "name";
  key.key = true;
  key.fields.push_back(spec::FieldSpec{"id", spec::FieldType::kInt16, 0, ta::Value{7}});
  ms.add_element(std::move(key));
  for (int e = 0; e < elements; ++e) {
    spec::ElementSpec es;
    es.name = "e" + std::to_string(e);
    es.convertible = true;
    for (int f = 0; f < fields_per_element; ++f) {
      es.fields.push_back(
          spec::FieldSpec{"f" + std::to_string(f), spec::FieldType::kInt32, 0, std::nullopt});
    }
    ms.add_element(std::move(es));
  }
  return ms;
}

void BM_EncodeMessage(benchmark::State& state) {
  const spec::MessageSpec ms = wide_message(static_cast<int>(state.range(0)), 4);
  const spec::MessageInstance inst = spec::make_instance(ms);
  for (auto _ : state) {
    auto bytes = spec::encode(ms, inst);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ms.wire_size()));
}
BENCHMARK(BM_EncodeMessage)->Arg(1)->Arg(4)->Arg(16);

void BM_DecodeMessage(benchmark::State& state) {
  const spec::MessageSpec ms = wide_message(static_cast<int>(state.range(0)), 4);
  const auto bytes = spec::encode(ms, spec::make_instance(ms)).value();
  for (auto _ : state) {
    auto inst = spec::decode(ms, bytes);
    benchmark::DoNotOptimize(inst);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ms.wire_size()));
}
BENCHMARK(BM_DecodeMessage)->Arg(1)->Arg(4)->Arg(16);

// -- Compiled wire layout vs field-walk codec (DESIGN.md S29) ---------------
//
// Same buffer/instance reused across iterations (the warmed-scratch
// shape the VN hot path runs): the compiled pair goes through the
// per-spec WireLayout offset table, the fieldwalk pair through the
// pre-S29 codec the layout is property-tested against (the oracle in
// tests/oracle/fieldwalk_codec.hpp).

void BM_EncodeCompiled(benchmark::State& state) {
  const spec::MessageSpec ms = wide_message(static_cast<int>(state.range(0)), 4);
  const spec::MessageInstance inst = spec::make_instance(ms);
  std::vector<std::byte> buffer;
  benchmark::DoNotOptimize(spec::encode_into(ms, inst, buffer));  // compile + warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec::encode_into(ms, inst, buffer));
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ms.wire_size()));
}
BENCHMARK(BM_EncodeCompiled)->Arg(4)->Arg(16);

void BM_EncodeFieldwalk(benchmark::State& state) {
  const spec::MessageSpec ms = wide_message(static_cast<int>(state.range(0)), 4);
  const spec::MessageInstance inst = spec::make_instance(ms);
  std::vector<std::byte> buffer;
  benchmark::DoNotOptimize(oracle::encode_fieldwalk_into(ms, inst, buffer));
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::encode_fieldwalk_into(ms, inst, buffer));
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ms.wire_size()));
}
BENCHMARK(BM_EncodeFieldwalk)->Arg(4)->Arg(16);

void BM_DecodeCompiled(benchmark::State& state) {
  const spec::MessageSpec ms = wide_message(static_cast<int>(state.range(0)), 4);
  const auto bytes = spec::encode(ms, spec::make_instance(ms)).value();
  spec::MessageInstance scratch = spec::make_instance(ms);
  benchmark::DoNotOptimize(spec::decode_into(ms, bytes, scratch));  // compile + warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec::decode_into(ms, bytes, scratch));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ms.wire_size()));
}
BENCHMARK(BM_DecodeCompiled)->Arg(4)->Arg(16);

void BM_DecodeFieldwalk(benchmark::State& state) {
  const spec::MessageSpec ms = wide_message(static_cast<int>(state.range(0)), 4);
  const auto bytes = spec::encode(ms, spec::make_instance(ms)).value();
  spec::MessageInstance scratch = spec::make_instance(ms);
  benchmark::DoNotOptimize(oracle::decode_fieldwalk_into(ms, bytes, scratch));
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::decode_fieldwalk_into(ms, bytes, scratch));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ms.wire_size()));
}
BENCHMARK(BM_DecodeFieldwalk)->Arg(4)->Arg(16);

void BM_IdentifyByKey(benchmark::State& state) {
  spec::LinkSpec link{"das"};
  for (int m = 0; m < state.range(0); ++m)
    link.add_message(state_message("m" + std::to_string(m), "e" + std::to_string(m), m + 1));
  const auto bytes =
      spec::encode(*link.message("m0"), spec::make_instance(*link.message("m0"))).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(link.identify(bytes));
  }
}
BENCHMARK(BM_IdentifyByKey)->Arg(1)->Arg(8)->Arg(32);

void BM_ParseLinkSpecXml(benchmark::State& state) {
  spec::LinkSpec link{"das"};
  link.add_message(wide_message(4, 4));
  link.add_automaton(ta::make_interarrival_receive("r", "wide", 4_ms, 100_ms));
  link.add_port(input_port("wide", spec::InfoSemantics::kEvent,
                           spec::ControlParadigm::kEventTriggered, Duration::zero(), 4_ms,
                           100_ms));
  const std::string xml = spec::write_link_spec_xml(link);
  for (auto _ : state) {
    auto parsed = spec::parse_link_spec_xml(xml);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(xml.size()));
}
BENCHMARK(BM_ParseLinkSpecXml);

/// Fully wired gateway: receive path = TA check + dissect + store (+ ET
/// construct on the other side).
std::unique_ptr<core::VirtualGateway> make_gateway(int elements) {
  spec::LinkSpec link_a{"dasA"};
  spec::MessageSpec in = wide_message(elements, 4);
  in.set_name("msgIn");
  link_a.add_message(std::move(in));
  link_a.add_port(input_port("msgIn", spec::InfoSemantics::kState,
                             spec::ControlParadigm::kTimeTriggered, 10_ms, 1_ns,
                             Duration::seconds(3600)));
  spec::LinkSpec link_b{"dasB"};
  spec::MessageSpec out = wide_message(elements, 4);
  out.set_name("msgOut");
  link_b.add_message(std::move(out));
  link_b.add_port(output_port("msgOut", spec::InfoSemantics::kState,
                              spec::ControlParadigm::kEventTriggered, Duration::zero()));
  core::GatewayConfig config;
  config.default_d_acc = Duration::seconds(3600);
  auto gateway = std::make_unique<core::VirtualGateway>("micro", std::move(link_a),
                                                        std::move(link_b), config);
  gateway->finalize();
  gateway->link_b().set_emitter("msgOut", [](const spec::MessageInstance&) {});
  return gateway;
}

void BM_GatewayReceiveAndForward(benchmark::State& state) {
  auto gateway = make_gateway(static_cast<int>(state.range(0)));
  const spec::MessageSpec& ms = *gateway->link_a().spec().message("msgIn");
  spec::MessageInstance inst = spec::make_instance(ms);
  Instant now = Instant::origin();
  for (auto _ : state) {
    now += 10_ms;
    gateway->on_input(0, inst, now);  // includes the event-driven ET forward
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GatewayReceiveAndForward)->Arg(1)->Arg(4)->Arg(16);

// -- Interned vs string paths (DESIGN.md S23) -------------------------------
//
// Each pair below measures the same logical operation twice: once through
// the compiled/interned path (dense ElementId, Symbol-keyed fields,
// storage reuse) and once through the name-keyed path the seed used
// (string resolution on every call, fresh allocations per instance). The
// harness computes the ratios into BENCH_E11.json; CI's perf-smoke job
// fails when the compiled dissect/construct rows regress.

/// Compiled dissect in the real engine: the input side of a gateway whose
/// only output port is time-triggered, so on_input() runs the dissect
/// plan + repository stores and nothing else (TT constructs only fire
/// from dispatch(), which this bench never calls).
std::unique_ptr<core::VirtualGateway> make_dissect_gateway(int elements) {
  spec::LinkSpec link_a{"dasA"};
  spec::MessageSpec in = wide_message(elements, 4);
  in.set_name("msgIn");
  link_a.add_message(std::move(in));
  link_a.add_port(input_port("msgIn", spec::InfoSemantics::kState,
                             spec::ControlParadigm::kTimeTriggered, 10_ms, 1_ns,
                             Duration::seconds(3600)));
  spec::LinkSpec link_b{"dasB"};
  spec::MessageSpec out = wide_message(elements, 4);
  out.set_name("msgOut");
  link_b.add_message(std::move(out));
  link_b.add_port(output_port("msgOut", spec::InfoSemantics::kState,
                              spec::ControlParadigm::kTimeTriggered, Duration::seconds(3600)));
  core::GatewayConfig config;
  config.default_d_acc = Duration::seconds(3600);
  auto gateway = std::make_unique<core::VirtualGateway>("micro", std::move(link_a),
                                                        std::move(link_b), config);
  gateway->finalize();
  return gateway;
}

/// Batched vs per-instance dispatch drain (DESIGN.md S29): a gateway
/// whose input is a pull-mode event port, so arrivals queue up in the
/// port ring and dispatch() drains the backlog through the precompiled
/// input binding -- plan/interpreter resolution and the pull-request
/// scan happen once per port per dispatch instead of per pending
/// instance. The per-instance row restates the drain the engine used
/// before S29: pop each pending instance and offer it to on_input(),
/// which resolves plan and interpreter by message name every time.
std::unique_ptr<core::VirtualGateway> make_drain_gateway() {
  spec::LinkSpec link_a{"dasA"};
  spec::MessageSpec in = wide_message(2, 4);
  in.set_name("msgIn");
  link_a.add_message(std::move(in));
  spec::PortSpec pull = input_port("msgIn", spec::InfoSemantics::kEvent,
                                   spec::ControlParadigm::kEventTriggered, Duration::zero(),
                                   Duration::zero(), Duration::max(), /*queue=*/32);
  pull.interaction = spec::Interaction::kPull;
  link_a.add_port(pull);
  spec::LinkSpec link_b{"dasB"};
  spec::MessageSpec out = wide_message(2, 4);
  out.set_name("msgOut");
  link_b.add_message(std::move(out));
  link_b.add_port(output_port("msgOut", spec::InfoSemantics::kState,
                              spec::ControlParadigm::kTimeTriggered, Duration::seconds(3600)));
  core::GatewayConfig config;
  config.default_d_acc = Duration::seconds(3600);
  auto gateway = std::make_unique<core::VirtualGateway>("micro", std::move(link_a),
                                                        std::move(link_b), config);
  gateway->finalize();
  return gateway;
}

/// Pre-S29 per-instance drain of `port`, then the dispatch() that polls
/// automata and runs the outputs (its own drain finds the port empty).
void drain_per_instance(core::VirtualGateway& gateway, vn::Port& port, Instant now) {
  while (port.has_data()) {
    const spec::MessageInstance* m = port.peek();
    if (m == nullptr) break;
    port.drop_front();  // consume first; the slot stays intact until the ring wraps
    gateway.on_input(0, *m, now);
  }
  gateway.dispatch(now);
}

/// One iteration = deposit `backlog` pending event instances, then one
/// drain of them all.
void drain_rounds(benchmark::State& state, bool batched) {
  const int backlog = static_cast<int>(state.range(0));
  auto gateway = make_drain_gateway();
  vn::Port* in_port = gateway->link_a().port("msgIn");
  const spec::MessageSpec& ms = *gateway->link_a().spec().message("msgIn");
  spec::MessageInstance inst = spec::make_instance(ms);
  const auto drain = [&](Instant now) {
    if (batched)
      gateway->dispatch(now);
    else
      drain_per_instance(*gateway, *in_port, now);
  };
  Instant now = Instant::origin();
  for (int i = 0; i < backlog; ++i) in_port->deposit(inst, now);
  drain(now);  // warm rings, plans and scratch
  for (auto _ : state) {
    now += 10_ms;
    inst.set_send_time(now);
    for (int i = 0; i < backlog; ++i) in_port->deposit(inst, now);
    drain(now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * backlog);
}

void BM_GatewayDrainBatched(benchmark::State& state) { drain_rounds(state, true); }
BENCHMARK(BM_GatewayDrainBatched)->Arg(4)->Arg(16);

void BM_GatewayDrainPerInstance(benchmark::State& state) { drain_rounds(state, false); }
BENCHMARK(BM_GatewayDrainPerInstance)->Arg(4)->Arg(16);

void BM_DissectCompiled(benchmark::State& state) {
  auto gateway = make_dissect_gateway(static_cast<int>(state.range(0)));
  const spec::MessageSpec& ms = *gateway->link_a().spec().message("msgIn");
  const spec::MessageInstance inst = spec::make_instance(ms);
  Instant now = Instant::origin();
  gateway->on_input(0, inst, now);  // warm the repository slots
  for (auto _ : state) {
    now += 10_ms;
    gateway->on_input(0, inst, now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DissectCompiled)->Arg(4)->Arg(16);

/// The seed's dissect loop, emulated: per element a fresh ElementInstance
/// is built with name-keyed set_field() calls and stored through the
/// name-keyed repository interface (resolve() per store).
void BM_DissectStringPath(benchmark::State& state) {
  const spec::MessageSpec ms = wide_message(static_cast<int>(state.range(0)), 4);
  const spec::MessageInstance inst = spec::make_instance(ms);
  core::Repository repo;
  for (const spec::ElementSpec& es : ms.elements())
    if (es.convertible)
      repo.declare(core::ElementDecl{es.name, spec::InfoSemantics::kState,
                                     Duration::seconds(3600), 4});
  Instant now = Instant::origin();
  for (auto _ : state) {
    now += 10_ms;
    for (std::size_t e = 0; e < ms.elements().size(); ++e) {
      const spec::ElementSpec& es = ms.elements()[e];
      if (!es.convertible) continue;
      core::ElementInstance ei;
      ei.observed_at = now;
      for (std::size_t f = 0; f < es.fields.size(); ++f)
        ei.set_field(es.fields[f].name, inst.elements()[e].fields[f]);
      repo.store(es.name, std::move(ei), now);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DissectStringPath)->Arg(4)->Arg(16);

/// Compiled construct in the real engine: fresh repository versions are
/// written by dense id, then dispatch() runs the construct plan of the
/// event-triggered output and emits into a no-op emitter.
void BM_ConstructCompiled(benchmark::State& state) {
  auto gateway = make_gateway(static_cast<int>(state.range(0)));
  core::Repository& repo = gateway->repository();
  std::vector<std::pair<core::ElementId, core::ElementInstance>> stores;
  for (int e = 0; e < state.range(0); ++e) {
    core::ElementInstance ei;
    for (int f = 0; f < 4; ++f) ei.set_field("f" + std::to_string(f), ta::Value{f});
    stores.emplace_back(*repo.id_of("e" + std::to_string(e)), std::move(ei));
  }
  Instant now = Instant::origin();
  for (auto _ : state) {
    now += 10_ms;
    for (auto& [id, ei] : stores) {
      ei.observed_at = now;
      repo.store_copy(id, ei, now);
    }
    gateway->dispatch(now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ConstructCompiled)->Arg(4)->Arg(16);

/// The seed's construct loop, emulated: a fresh MessageInstance per
/// emission, each element fetched by name (copying), each field copied
/// through a string-keyed scan.
void BM_ConstructStringPath(benchmark::State& state) {
  const spec::MessageSpec ms = wide_message(static_cast<int>(state.range(0)), 4);
  core::Repository repo;
  std::vector<std::pair<core::ElementId, core::ElementInstance>> stores;
  for (const spec::ElementSpec& es : ms.elements()) {
    if (!es.convertible) continue;
    const auto id = repo.declare(core::ElementDecl{es.name, spec::InfoSemantics::kState,
                                                   Duration::seconds(3600), 4});
    core::ElementInstance ei;
    for (const spec::FieldSpec& fs : es.fields) ei.set_field(fs.name, ta::Value{1});
    stores.emplace_back(id, std::move(ei));
  }
  Instant now = Instant::origin();
  for (auto _ : state) {
    now += 10_ms;
    for (auto& [id, ei] : stores) {
      ei.observed_at = now;
      repo.store_copy(id, ei, now);  // same store cost as the compiled bench
    }
    spec::MessageInstance out = spec::make_instance(ms);
    for (std::size_t e = 0; e < ms.elements().size(); ++e) {
      const spec::ElementSpec& es = ms.elements()[e];
      if (!es.convertible) continue;
      auto fetched = repo.fetch(es.name, now);
      if (!fetched) continue;
      for (std::size_t f = 0; f < es.fields.size(); ++f) {
        if (es.fields[f].is_static()) continue;
        if (const ta::Value* v = fetched->field(es.fields[f].name))
          out.elements()[e].fields[f] = *v;
      }
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ConstructStringPath)->Arg(4)->Arg(16);

/// Dense-id repository round trip: copy-assigning store + borrowed state
/// fetch, zero allocations after warm-up.
void BM_RepositoryStoreFetchStateInterned(benchmark::State& state) {
  core::Repository repo;
  const core::ElementId id =
      repo.declare(core::ElementDecl{"s", spec::InfoSemantics::kState, 1_s, 4});
  core::ElementInstance inst;
  inst.set_field("value", ta::Value{1});
  inst.set_field("t", ta::Value{Instant::origin()});
  Instant now = Instant::origin();
  repo.store_copy(id, inst, now);  // warm the slot
  for (auto _ : state) {
    now += 1_ms;
    repo.store_copy(id, inst, now);
    benchmark::DoNotOptimize(repo.fetch_state(id, now));
  }
}
BENCHMARK(BM_RepositoryStoreFetchStateInterned);

void BM_RepositoryStoreFetchEventInterned(benchmark::State& state) {
  core::Repository repo;
  const core::ElementId id =
      repo.declare(core::ElementDecl{"e", spec::InfoSemantics::kEvent, 1_s, 64});
  core::ElementInstance inst;
  inst.set_field("value", ta::Value{1});
  core::ElementInstance out;
  Instant now = Instant::origin();
  for (auto _ : state) {
    now += 1_ms;
    repo.store_copy(id, inst, now);
    benchmark::DoNotOptimize(repo.consume_into(id, out));
  }
}
BENCHMARK(BM_RepositoryStoreFetchEventInterned);

void BM_RepositoryStoreFetchState(benchmark::State& state) {
  core::Repository repo;
  repo.declare(core::ElementDecl{"s", spec::InfoSemantics::kState, 1_s, 4});
  core::ElementInstance inst;
  inst.set_field("value", ta::Value{1});
  inst.set_field("t", ta::Value{Instant::origin()});
  Instant now = Instant::origin();
  for (auto _ : state) {
    now += 1_ms;
    repo.store("s", inst, now);
    benchmark::DoNotOptimize(repo.fetch("s", now));
  }
}
BENCHMARK(BM_RepositoryStoreFetchState);

void BM_RepositoryStoreFetchEvent(benchmark::State& state) {
  core::Repository repo;
  repo.declare(core::ElementDecl{"e", spec::InfoSemantics::kEvent, 1_s, 64});
  core::ElementInstance inst;
  inst.set_field("value", ta::Value{1});
  Instant now = Instant::origin();
  for (auto _ : state) {
    now += 1_ms;
    repo.store("e", inst, now);
    benchmark::DoNotOptimize(repo.fetch("e", now));
  }
}
BENCHMARK(BM_RepositoryStoreFetchEvent);

void BM_AutomatonReceiveStep(benchmark::State& state) {
  const ta::AutomatonSpec spec = ta::make_interarrival_receive("r", "m", 4_ms, 1_s);
  ta::Interpreter interp{spec};
  Instant now = Instant::origin();
  interp.restart(now);
  for (auto _ : state) {
    now += 10_ms;
    benchmark::DoNotOptimize(interp.on_receive("m", now));
  }
}
BENCHMARK(BM_AutomatonReceiveStep);

void BM_GuardEvaluation(benchmark::State& state) {
  const ta::ExprPtr guard =
      ta::parse_expression("n == 0 || (x >= 4000000 && x <= 100000000)").value();
  class Env final : public ta::Environment {
   public:
    ta::Value get(const std::string& name) const override {
      return name == "n" ? ta::Value{1} : ta::Value{Duration::milliseconds(10)};
    }
    void set(const std::string&, const ta::Value&) override {}
    ta::Value call(const std::string&, const std::vector<ta::Value>&) override { return {}; }
  } env;
  for (auto _ : state) {
    benchmark::DoNotOptimize(guard->evaluate(env));
  }
}
BENCHMARK(BM_GuardEvaluation);

// Forwards google-benchmark's console output into the harness so the
// BENCH_e11.json rows mirror what the terminal shows, and collects the
// per-benchmark timings as structured JSON.
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

  /// string-path cpu / interned-path cpu (>1 means the compiled path is
  /// faster); 0 when either row is missing.
  double speedup(const std::string& interned, const std::string& string_path) const {
    const auto a = cpu_ns_.find(interned);
    const auto b = cpu_ns_.find(string_path);
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
  Harness harness{argc, argv, "e11"};
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
  // Interned-vs-string ratios (>1 = compiled path faster). The acceptance
  // bar for S23 is >= 2x on the repository store/fetch round trip.
  obs::json::Object speedups;
  speedups.emplace_back("repo_state", reporter.speedup("BM_RepositoryStoreFetchStateInterned",
                                                       "BM_RepositoryStoreFetchState"));
  speedups.emplace_back("repo_event", reporter.speedup("BM_RepositoryStoreFetchEventInterned",
                                                       "BM_RepositoryStoreFetchEvent"));
  speedups.emplace_back("dissect",
                        reporter.speedup("BM_DissectCompiled/16", "BM_DissectStringPath/16"));
  speedups.emplace_back("construct",
                        reporter.speedup("BM_ConstructCompiled/16", "BM_ConstructStringPath/16"));
  // Compiled-wire-layout and batched-dispatch ratios (S29).
  speedups.emplace_back("encode", reporter.speedup("BM_EncodeCompiled/16", "BM_EncodeFieldwalk/16"));
  speedups.emplace_back("decode", reporter.speedup("BM_DecodeCompiled/16", "BM_DecodeFieldwalk/16"));
  speedups.emplace_back("dispatch_batch", reporter.speedup("BM_GatewayDrainBatched/16",
                                                           "BM_GatewayDrainPerInstance/16"));
  harness.set_json("speedups", obs::json::Value{std::move(speedups)});
  harness.set_json("benchmarks", obs::json::Value{reporter.take_results()});
  benchmark::Shutdown();
  return 0;
}
