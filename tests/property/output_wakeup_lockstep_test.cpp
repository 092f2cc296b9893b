// Lockstep property of the event-triggered output pass: however the
// gateway decides which construct plans to evaluate after an admitted
// frame or a dispatch tick, every observable artifact must equal that of
// evaluating *every* plan on every pass. A seeded generator builds
// many-output gateways mixing
//   - event and state-only event-triggered outputs, plus periodic ones,
//   - an event element consumed by two output plans,
//   - state elements whose d_acc is shorter than the gaps between
//     arrivals (images go stale between passes),
//   - transfer rules targeting required slots (state and event targets),
//   - guarded hand-written send automata, some with an error location
//     reached by a timeout edge, with and without auto-restart,
//   - pull input ports, the pull_only_on_request mode and the
//     accuracy_check_at_store ablation,
// and drives them through on_input()/dispatch(). After every pass the
// emitted payload bytes, every element's b_req, every GatewayStats field,
// the gw.<name>.* counters and the span stream are folded into a 64-bit
// FNV-1a digest per gateway. The digests are pinned under
// tests/property/golden/output_wakeup_seed<N>.txt, recorded from the
// engine that evaluated every plan on every pass; a deliberate change of
// gateway behaviour edits the fixtures by hand (a mismatch prints the
// run's digest). Each gateway runs in its own partition of a partitioned
// simulator, checked at --sim-jobs 1 and 8.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/virtual_gateway.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/simulator.hpp"
#include "spec/message.hpp"
#include "util/rng.hpp"

namespace decos::core {
namespace {

using namespace decos::literals;

constexpr int kGatewaysPerSeed = 6;
constexpr int kStepsPerGateway = 1500;

struct Fnv {
  std::uint64_t hash = 14695981039346656037ull;
  void add(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ull;
    }
  }
  void add(const std::string& text) { add(text.data(), text.size()); }
  std::string hex() const {
    std::ostringstream out;
    out << std::hex << std::setw(16) << std::setfill('0') << hash;
    return out.str();
  }
};

/// A two-field convertible element (int32 `value`, timestamp `t`) in a
/// keyed message, the shape every generated element shares.
spec::MessageSpec one_element_message(const std::string& name, int key,
                                      const std::vector<std::string>& elements) {
  spec::MessageSpec ms{name};
  spec::ElementSpec key_el;
  key_el.name = "name";
  key_el.key = true;
  key_el.fields.push_back(spec::FieldSpec{"id", spec::FieldType::kInt16, 0, ta::Value{key}});
  ms.add_element(std::move(key_el));
  for (const std::string& element : elements) {
    spec::ElementSpec es;
    es.name = element;
    es.convertible = true;
    es.fields.push_back(spec::FieldSpec{"value", spec::FieldType::kInt32, 0, std::nullopt});
    es.fields.push_back(spec::FieldSpec{"t", spec::FieldType::kTimestamp, 0, std::nullopt});
    ms.add_element(std::move(es));
  }
  return ms;
}

/// Send automaton whose m! edge needs `gap_ns` since the last emission;
/// with `timeout_ns` > 0 a silence that long drives it into "err".
ta::AutomatonSpec guarded_send(const std::string& message, std::int64_t gap_ns,
                               std::int64_t timeout_ns) {
  ta::AutomatonSpec spec{"send_" + message};
  spec.add_location("run");
  spec.add_clock("x");
  ta::Edge send;
  send.source = "run";
  send.target = "run";
  send.action = ta::ActionKind::kSend;
  send.message = message;
  send.guard = ta::parse_expression("x >= " + std::to_string(gap_ns)).value();
  send.assignments = ta::parse_assignments("x := 0").value();
  spec.add_edge(std::move(send));
  if (timeout_ns > 0) {
    spec.add_location("err");
    spec.set_error("err");
    ta::Edge timeout;
    timeout.source = "run";
    timeout.target = "err";
    timeout.guard = ta::parse_expression("x > " + std::to_string(timeout_ns)).value();
    spec.add_edge(std::move(timeout));
  }
  return spec;
}

/// One pass of the drive schedule.
struct Step {
  Instant at;
  int input = -1;  // index into Harness::inputs; -1 = dispatch
  std::int32_t value = 0;
};

/// One generated gateway, its drive schedule and its running digest.
struct Harness {
  std::unique_ptr<VirtualGateway> gw;
  obs::MetricsRegistry metrics;
  obs::TraceCollector spans;
  struct Input {
    std::string message;
    bool pull = false;
  };
  std::vector<Input> inputs;
  std::vector<Step> steps;
  std::vector<std::byte> tx;
  Fnv digest;
  std::uint64_t passes = 0;
  std::uint64_t emitted = 0;
  std::uint64_t next_trace = 1;
  std::size_t spans_folded = 0;

  void build(Rng& rng, const std::string& name) {
    const int n_event = static_cast<int>(rng.uniform_int(2, 5));
    const int n_state = static_cast<int>(rng.uniform_int(2, 5));
    const int n_derived = static_cast<int>(rng.uniform_int(1, 3));
    const int n_outputs = static_cast<int>(rng.uniform_int(10, 24));

    GatewayConfig config;
    config.default_d_acc = 4_ms;
    config.default_queue_capacity = 4;
    config.pull_only_on_request = rng.bernoulli(0.4);
    config.accuracy_check_at_store = rng.bernoulli(0.25);
    config.restart_delay = rng.bernoulli(0.5) ? 7_ms : Duration::zero();

    spec::LinkSpec link_a{"srcA"};
    spec::LinkSpec link_b{"dstB"};
    std::vector<std::string> event_elements, state_elements, pool;
    int key = 100;
    const auto add_input = [&](const std::string& element, spec::InfoSemantics semantics) {
      const std::string message = "i" + element;
      link_a.add_message(one_element_message(message, key++, {element}));
      spec::PortSpec in;
      in.message = message;
      in.direction = spec::DataDirection::kInput;
      in.semantics = semantics;
      in.paradigm = spec::ControlParadigm::kEventTriggered;
      in.interaction = rng.bernoulli(0.3) ? spec::Interaction::kPull : spec::Interaction::kPush;
      // A few inputs reject same-instant bursts as temporal violations.
      in.min_interarrival = rng.bernoulli(0.15) ? 1_us : Duration::zero();
      in.max_interarrival = Duration::seconds(3600);
      in.queue_capacity = 8;
      link_a.add_port(in);
      inputs.push_back(Input{message, in.interaction == spec::Interaction::kPull});
    };
    for (int i = 0; i < n_event; ++i) {
      event_elements.push_back("ev" + std::to_string(i));
      add_input(event_elements.back(), spec::InfoSemantics::kEvent);
    }
    for (int i = 0; i < n_state; ++i) {
      state_elements.push_back("st" + std::to_string(i));
      add_input(state_elements.back(), spec::InfoSemantics::kState);
    }
    pool = event_elements;
    pool.insert(pool.end(), state_elements.begin(), state_elements.end());

    // Transfer rules: each derives dv<k> (event or state) from a state
    // source; the derived slot is required by outputs like any other.
    std::vector<std::pair<std::string, spec::InfoSemantics>> derived;
    for (int k = 0; k < n_derived; ++k) {
      spec::TransferRule rule;
      rule.target = "dv" + std::to_string(k);
      rule.source = state_elements[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n_state) - 1))];
      const bool event = rng.bernoulli(0.5);
      for (const char* field : {"value", "t"}) {
        spec::TransferFieldRule f;
        f.name = field;
        f.init = ta::Value{0};
        f.semantics = event ? "event" : "state";
        f.update = ta::parse_expression(field).value();
        rule.fields.push_back(std::move(f));
      }
      derived.emplace_back(rule.target,
                           event ? spec::InfoSemantics::kEvent : spec::InfoSemantics::kState);
      pool.push_back(rule.target);
      link_a.add_transfer_rule(std::move(rule));
    }

    const auto is_event = [&](const std::string& element) {
      for (const auto& e : event_elements)
        if (e == element) return true;
      for (const auto& [d, semantics] : derived)
        if (d == element) return semantics == spec::InfoSemantics::kEvent;
      return false;
    };

    for (int k = 0; k < n_outputs; ++k) {
      std::vector<std::string> required;
      if (k < 2) {
        required.push_back(event_elements[0]);  // one event element, two consumers
        if (k == 1) required.push_back(state_elements[0]);
      } else if (k == 2) {
        required.push_back(state_elements[1]);  // state-only ET output
      } else {
        const int count = static_cast<int>(rng.uniform_int(1, 3));
        for (int c = 0; c < count; ++c) {
          const std::string& pick = pool[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
          bool dup = false;
          for (const auto& r : required) dup = dup || r == pick;
          if (!dup) required.push_back(pick);
        }
      }
      bool any_event = false;
      for (const auto& r : required) any_event = any_event || is_event(r);
      const std::string message = "o" + std::to_string(k);
      link_b.add_message(one_element_message(message, 500 + k, required));
      spec::PortSpec out;
      out.message = message;
      out.direction = spec::DataDirection::kOutput;
      out.semantics = any_event ? spec::InfoSemantics::kEvent : spec::InfoSemantics::kState;
      const bool tt = k > 2 && rng.bernoulli(0.15);
      out.paradigm =
          tt ? spec::ControlParadigm::kTimeTriggered : spec::ControlParadigm::kEventTriggered;
      if (tt) out.period = Duration::milliseconds(rng.uniform_int(2, 6));
      out.queue_capacity = 8;
      link_b.add_port(out);
      if (!tt && k > 2 && rng.bernoulli(0.25)) {
        const std::int64_t gap = rng.uniform_int(1, 4) * 1'000'000;
        const std::int64_t timeout = rng.bernoulli(0.5) ? rng.uniform_int(15, 40) * 1'000'000 : 0;
        link_b.add_automaton(guarded_send(message, gap, timeout));
      }
    }

    gw = std::make_unique<VirtualGateway>(name, std::move(link_a), std::move(link_b), config);
    for (const auto& e : event_elements)
      gw->set_element_config(e, spec::InfoSemantics::kEvent, 4_ms,
                             static_cast<std::size_t>(rng.uniform_int(2, 6)));
    for (const auto& s : state_elements)
      gw->set_element_config(s, spec::InfoSemantics::kState,
                             Duration::microseconds(rng.uniform_int(500, 6000)));
    for (const auto& [d, semantics] : derived)
      gw->set_element_config(d, semantics, Duration::microseconds(rng.uniform_int(500, 6000)),
                             3);
    gw->finalize();
    gw->trace().set_enabled(false);
    gw->bind_observability(metrics, spans);

    for (const auto& plan : gw->link_b().construct_plans()) {
      const spec::MessageSpec* ms = plan->message;
      gw->link_b().set_emitter(ms->name(), [this, ms](const spec::MessageInstance& instance) {
        ASSERT_TRUE(spec::encode_into(*ms, instance, tx).ok());
        digest.add(ms->name());
        digest.add(tx.data(), tx.size());
        ++emitted;
      });
    }

    // Drive schedule: bursts at one instant, sub-d_acc gaps and gaps
    // long enough for every state image to go stale.
    Instant now = Instant::origin() + 1_ms;
    for (int s = 0; s < kStepsPerGateway; ++s) {
      const std::int64_t kind = rng.uniform_int(0, 9);
      if (kind >= 3) {
        now += kind < 6 ? Duration::microseconds(rng.uniform_int(1, 900))
                        : Duration::microseconds(rng.uniform_int(1000, 9000));
      }
      Step step;
      step.at = now;
      if (rng.bernoulli(0.65)) {
        step.input = static_cast<int>(
            rng.uniform_int(0, static_cast<std::int64_t>(inputs.size()) - 1));
        step.value = static_cast<std::int32_t>(rng.uniform_int(-100000, 100000));
      }
      steps.push_back(step);
    }
  }

  void run_step(std::size_t index) {
    const Step& step = steps[index];
    if (step.input < 0) {
      gw->dispatch(step.at);
    } else {
      const Input& input = inputs[static_cast<std::size_t>(step.input)];
      spec::MessageInstance inst = spec::make_instance(*gw->link_a().spec().message(input.message));
      inst.elements()[1].fields[0] = ta::Value{static_cast<std::int64_t>(step.value)};
      inst.elements()[1].fields[1] = ta::Value{step.at};
      inst.set_send_time(step.at);
      inst.set_trace(next_trace++, 0);
      if (input.pull) {
        gw->link_a().port(input.message)->deposit(inst, step.at);
        return;  // drained by the next dispatch: no pass of its own
      }
      gw->on_input(0, inst, step.at);
    }
    fold_pass(index);
  }

  void fold_pass(std::size_t index) {
    ++passes;
    const GatewayStats& st = gw->stats();
    std::ostringstream line;
    line << index << " in=" << st.messages_in << " adm=" << st.messages_admitted
         << " bt=" << st.blocked_temporal << " bv=" << st.blocked_value
         << " bu=" << st.blocked_unknown << " stored=" << st.elements_stored
         << " ovf=" << st.element_overflows << " conv=" << st.conversions
         << " out=" << st.messages_constructed << " held=" << st.construction_held
         << " failed=" << st.construction_failed << " err=" << st.automaton_errors
         << " restarts=" << st.restarts << " req=";
    Repository& repo = gw->repository();
    for (ElementId id = 0; id < repo.element_count(); ++id) line << (repo.requested(id) ? '1' : '0');
    line << " stale=" << repo.stale_fetches_refused() << " overflows=" << repo.overflows();
    const std::string prefix = "gw." + gw->name() + ".";
    for (const char* counter : {"forwarded", "suppressed.temporal", "suppressed.value",
                                "suppressed.unknown", "suppressed.construction"})
      line << ' ' << counter << '=' << metrics.counter(prefix + counter).value();
    for (; spans_folded < spans.spans().size(); ++spans_folded) {
      const obs::Span& span = spans.spans()[spans_folded];
      line << " span(" << span.trace_id << ',' << span.span_id << ',' << span.parent_id << ','
           << static_cast<int>(span.phase) << ',' << symbol_name(span.name) << ','
           << span.start.ns() << ',' << span.end.ns() << ')';
    }
    line << '\n';
    digest.add(line.str());
  }
};

/// Build the seed's gateways, run each in its own partition at
/// `sim_jobs` workers, return the golden fixture's text.
std::string run_seed(std::uint64_t seed, std::size_t sim_jobs) {
  Rng rng{seed};
  std::vector<std::unique_ptr<Harness>> harnesses;
  for (int g = 0; g < kGatewaysPerSeed; ++g) {
    harnesses.push_back(std::make_unique<Harness>());
    harnesses.back()->build(rng, "wake" + std::to_string(g));
  }

  sim::Simulator sim;
  sim.configure_partitions(kGatewaysPerSeed, sim_jobs);
  Instant end = Instant::origin();
  for (int g = 0; g < kGatewaysPerSeed; ++g) {
    Harness* h = harnesses[static_cast<std::size_t>(g)].get();
    sim.set_ambient_kernel(static_cast<std::uint32_t>(g + 1));
    for (std::size_t s = 0; s < h->steps.size(); ++s) {
      sim.schedule_at(h->steps[s].at, [h, s] { h->run_step(s); });
      if (h->steps[s].at > end) end = h->steps[s].at;
    }
  }
  sim.set_ambient_kernel(0);
  sim.run_until(end + 1_ms);

  std::ostringstream out;
  out << "seed " << seed << "\n";
  for (int g = 0; g < kGatewaysPerSeed; ++g) {
    const Harness& h = *harnesses[static_cast<std::size_t>(g)];
    out << "gw" << g << " outputs " << h.gw->link_b().construct_plans().size() << " passes "
        << h.passes << " emitted " << h.emitted << " held " << h.gw->stats().construction_held
        << " digest " << h.digest.hex() << "\n";
  }
  return out.str();
}

std::string golden_path(std::uint64_t seed) {
  return std::string{DECOS_PROPERTY_GOLDEN_DIR} + "/output_wakeup_seed" + std::to_string(seed) +
         ".txt";
}

class OutputWakeupLockstep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OutputWakeupLockstep, ArtifactsIdenticalToFullOutputScan) {
  const std::uint64_t seed = GetParam();
  const std::string path = golden_path(seed);
  std::ifstream in{path};
  ASSERT_TRUE(in.good()) << "missing golden fixture " << path;
  std::stringstream golden;
  golden << in.rdbuf();

  for (const std::size_t sim_jobs : {std::size_t{1}, std::size_t{8}}) {
    EXPECT_EQ(run_seed(seed, sim_jobs), golden.str())
        << "sim-jobs " << sim_jobs << " diverged from the full-scan output golden";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OutputWakeupLockstep, ::testing::Values(3, 41, 2027));

}  // namespace
}  // namespace decos::core
