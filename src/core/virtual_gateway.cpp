#include "core/virtual_gateway.hpp"

#include <algorithm>
#include <bit>
#include <set>

namespace decos::core {

namespace {

// Interned spellings of the implicit time identifier (shared with the
// automaton interpreter's environment).
Symbol t_now_sym() {
  static const Symbol sym = intern_symbol("t_now");
  return sym;
}
Symbol tnow_sym() {
  static const Symbol sym = intern_symbol("tnow");
  return sym;
}

/// The shape make_unconstrained_send builds: one location, no error
/// location, and a single unguarded m! self-loop of `message`. Such an
/// automaton enables m! at every instant, so its try_send outcome
/// depends on the repository alone.
bool guard_free_send(const ta::AutomatonSpec& automaton, Symbol message) {
  if (automaton.locations().size() != 1 || !automaton.error().empty() ||
      automaton.edges().size() != 1)
    return false;
  const ta::Edge& edge = automaton.edges().front();
  return edge.action == ta::ActionKind::kSend && edge.message_sym == message &&
         edge.guard == nullptr && edge.source_sym == edge.target_sym;
}

}  // namespace

// ---------------------------------------------------------------------------
// Transfer-semantics evaluation environment: identifiers resolve first to
// the derived element's current fields, then to the source instance's
// fields, then to the link parameters. Expression identifiers arrive
// pre-interned, so the Symbol overloads never compare strings.
// ---------------------------------------------------------------------------
class VirtualGateway::ConversionEnv final : public ta::Environment {
 public:
  ConversionEnv(ElementInstance& target, const ElementInstance& source,
                const spec::LinkSpec& link_spec, Instant now)
      : target_{target}, source_{source}, link_spec_{link_spec}, now_{now} {}

  ta::Value get(Symbol sym, const std::string& name) const override {
    if (sym == t_now_sym() || sym == tnow_sym()) return ta::Value{now_};
    if (const ta::Value* v = target_.field(sym); v != nullptr) return *v;
    if (const ta::Value* v = source_.field(sym); v != nullptr) return *v;
    if (link_spec_.has_parameter(name)) return link_spec_.parameter(name);
    throw SpecError("transfer semantics: unknown identifier '" + name + "'");
  }

  ta::Value get(const std::string& name) const override {
    return get(intern_symbol(name), name);
  }

  void set(Symbol sym, const std::string&, const ta::Value& value) override {
    target_.set_field(sym, value);
  }

  void set(const std::string& name, const ta::Value& value) override {
    target_.set_field(name, value);
  }

  ta::Value call(const std::string& fn, const std::vector<ta::Value>& args) override {
    if (fn == "min" && args.size() == 2)
      return args[0].as_real() <= args[1].as_real() ? args[0] : args[1];
    if (fn == "max" && args.size() == 2)
      return args[0].as_real() >= args[1].as_real() ? args[0] : args[1];
    if (fn == "abs" && args.size() == 1) {
      if (args[0].is_real())
        return ta::Value{args[0].as_real() < 0 ? -args[0].as_real() : args[0].as_real()};
      return ta::Value{args[0].as_int() < 0 ? -args[0].as_int() : args[0].as_int()};
    }
    throw SpecError("transfer semantics: unknown function '" + fn + "'");
  }

 private:
  ElementInstance& target_;
  const ElementInstance& source_;
  const spec::LinkSpec& link_spec_;
  Instant now_;
};

// ---------------------------------------------------------------------------
// Value-domain filter environment: identifiers resolve to the fields of
// the arriving instance (searched across its elements, declaration
// order), then to the link parameters.
// ---------------------------------------------------------------------------
namespace {
class FilterEnv final : public ta::Environment {
 public:
  FilterEnv(const spec::MessageSpec& message_spec, const spec::MessageInstance& instance,
            const spec::LinkSpec& link_spec, Instant now)
      : message_spec_{message_spec}, instance_{instance}, link_spec_{link_spec}, now_{now} {}

  ta::Value get(Symbol sym, const std::string& name) const override {
    if (sym == t_now_sym() || sym == tnow_sym()) return ta::Value{now_};
    for (std::size_t ei = 0; ei < message_spec_.elements().size(); ++ei) {
      const spec::ElementSpec& es = message_spec_.elements()[ei];
      for (std::size_t fi = 0; fi < es.fields.size(); ++fi) {
        if (es.fields[fi].sym() != sym) continue;
        if (ei < instance_.elements().size() && fi < instance_.elements()[ei].fields.size())
          return instance_.elements()[ei].fields[fi];
      }
    }
    if (link_spec_.has_parameter(name)) return link_spec_.parameter(name);
    throw SpecError("value filter: unknown identifier '" + name + "'");
  }

  ta::Value get(const std::string& name) const override {
    return get(intern_symbol(name), name);
  }

  void set(const std::string&, const ta::Value&) override {
    throw SpecError("value filters cannot assign");
  }
  ta::Value call(const std::string& fn, const std::vector<ta::Value>& args) override {
    if (fn == "abs" && args.size() == 1) {
      if (args[0].is_real())
        return ta::Value{args[0].as_real() < 0 ? -args[0].as_real() : args[0].as_real()};
      return ta::Value{args[0].as_int() < 0 ? -args[0].as_int() : args[0].as_int()};
    }
    throw SpecError("value filter: unknown function '" + fn + "'");
  }

 private:
  const spec::MessageSpec& message_spec_;
  const spec::MessageInstance& instance_;
  const spec::LinkSpec& link_spec_;
  Instant now_;
};
}  // namespace

// ---------------------------------------------------------------------------

std::string GatewayStats::summary() const {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "in=%llu admitted=%llu forwarded=%llu blocked(temporal=%llu value=%llu "
                "unknown=%llu) stored=%llu overflows=%llu conversions=%llu held=%llu "
                "failed=%llu errors=%llu restarts=%llu",
                static_cast<unsigned long long>(messages_in),
                static_cast<unsigned long long>(messages_admitted),
                static_cast<unsigned long long>(messages_constructed),
                static_cast<unsigned long long>(blocked_temporal),
                static_cast<unsigned long long>(blocked_value),
                static_cast<unsigned long long>(blocked_unknown),
                static_cast<unsigned long long>(elements_stored),
                static_cast<unsigned long long>(element_overflows),
                static_cast<unsigned long long>(conversions),
                static_cast<unsigned long long>(construction_held),
                static_cast<unsigned long long>(construction_failed),
                static_cast<unsigned long long>(automaton_errors),
                static_cast<unsigned long long>(restarts));
  return buf;
}

VirtualGateway::VirtualGateway(std::string name, spec::LinkSpec link_a, spec::LinkSpec link_b,
                               GatewayConfig config)
    : name_{std::move(name)},
      config_{config},
      link_a_{0, std::move(link_a)},
      link_b_{1, std::move(link_b)},
      track_sym_{intern_symbol("gw:" + name_)} {}

void VirtualGateway::bind_observability(obs::MetricsRegistry& metrics, obs::TraceCollector& spans) {
  spans_ = &spans;
  if (forwarded_metric_ != nullptr) return;  // instruments already registered
  const std::string prefix = "gw." + name_ + ".";
  dissect_ns_ = &metrics.histogram(prefix + "dissect_ns", obs::Determinism::kHostTime);
  construct_ns_ = &metrics.histogram(prefix + "construct_ns", obs::Determinism::kHostTime);
  staleness_ns_ = &metrics.histogram(prefix + "staleness_ns");
  forwarded_metric_ = &metrics.counter(prefix + "forwarded");
  suppressed_temporal_ = &metrics.counter(prefix + "suppressed.temporal");
  suppressed_value_ = &metrics.counter(prefix + "suppressed.value");
  suppressed_unknown_ = &metrics.counter(prefix + "suppressed.unknown");
  suppressed_construction_ = &metrics.counter(prefix + "suppressed.construction");
}

void VirtualGateway::bind_observability(sim::Simulator& sim) {
  bind_observability(sim.metrics(), sim.spans());
  sim.on_telemetry([this](obs::WindowAggregator& aggregator) { register_flows(aggregator); });
}

void VirtualGateway::register_flows(obs::WindowAggregator& aggregator) const {
  const GatewayLink* sides[2][2] = {{&link_a_, &link_b_}, {&link_b_, &link_a_}};
  for (const auto& [out_link, in_link] : sides) {
    for (const auto& plan : out_link->construct_plans()) {
      // Tightest temporal-accuracy interval over the message's required
      // state elements: the end-to-end deadline of every flow feeding
      // this construction.
      Duration d_acc = Duration::max();
      bool has_state = false;
      for (const ElementId id : plan->required) {
        const ElementDecl& decl = repository_.decl_of(id);
        if (decl.semantics != spec::InfoSemantics::kState) continue;
        has_state = true;
        if (decl.d_acc < d_acc) d_acc = decl.d_acc;
      }
      if (!has_state) continue;  // pure event flows have no d_acc deadline
      const std::string out_name = symbol_name(plan->message_sym);
      // Every incoming message on the opposite link that feeds one of
      // the required slots (directly or through a transfer rule) roots
      // a flow into this construction.
      for (const auto& [sym, dissect] : in_link->dissect_plans()) {
        bool feeds = false;
        for (const DissectItem& item : dissect.items) {
          if (item.needed &&
              std::find(plan->required.begin(), plan->required.end(), item.repo_id) !=
                  plan->required.end()) {
            feeds = true;
            break;
          }
          for (const RulePlan* rule : item.rules) {
            if (std::find(plan->required.begin(), plan->required.end(), rule->target_id) !=
                plan->required.end()) {
              feeds = true;
              break;
            }
          }
          if (feeds) break;
        }
        if (!feeds) continue;
        const std::string& in_name = symbol_name(dissect.message_sym);
        const std::string key = in_name == out_name ? in_name : in_name + "->" + out_name;
        aggregator.set_deadline(key, d_acc);
      }
    }
  }
}

void VirtualGateway::set_element_config(const std::string& repo_element,
                                        spec::InfoSemantics semantics, Duration d_acc,
                                        std::size_t queue_capacity) {
  if (finalized_) throw SpecError("set_element_config after finalize()");
  element_overrides_[repo_element] =
      ElementDecl{repo_element, semantics, d_acc, queue_capacity};
}

std::vector<std::string> VirtualGateway::required_elements(
    const GatewayLink& link, const spec::MessageSpec& message) const {
  std::vector<std::string> out;
  for (const auto* es : message.convertible_elements()) out.push_back(link.repo_name(es->name));
  return out;
}

void VirtualGateway::finalize() {
  if (finalized_) throw SpecError("gateway '" + name_ + "' finalized twice");
  if (config_.strict_lint) {
    const lint::Report report = lint();
    if (!report.clean())
      throw SpecError("gateway '" + name_ + "' rejected by strict lint (" +
                      std::to_string(report.error_count()) + " error(s)):\n" + report.format());
  }
  finalized_ = true;

  const auto declare_element = [this](const std::string& repo_element,
                                      spec::InfoSemantics semantics) {
    const auto it = element_overrides_.find(repo_element);
    if (it != element_overrides_.end()) {
      repository_.declare(it->second);
      return;
    }
    ElementDecl decl;
    decl.name = repo_element;
    decl.semantics = semantics;
    decl.d_acc = config_.default_d_acc;
    decl.queue_capacity = config_.default_queue_capacity;
    repository_.declare(decl);
  };

  // An element's information semantics are set by the side that
  // *produces* it (input ports and transfer rules); output ports only
  // contribute a fallback declaration when nobody produces the element.
  std::vector<std::pair<std::string, spec::InfoSemantics>> output_fallbacks;

  for (GatewayLink* link : {&link_a_, &link_b_}) {
    // 1. Ports + repository declarations for incoming convertible elements.
    for (const spec::PortSpec& port_spec : link->spec().ports()) {
      const spec::MessageSpec* ms = link->spec().message(port_spec.message);
      link->ports_.push_back(std::make_unique<vn::Port>(port_spec));
      vn::Port* port = link->ports_.back().get();
      link->port_by_message_[intern_symbol(port_spec.message)] = port;

      for (const auto* es : ms->convertible_elements()) {
        if (port_spec.direction == spec::DataDirection::kInput) {
          declare_element(link->repo_name(es->name), port_spec.semantics);
        } else {
          output_fallbacks.emplace_back(link->repo_name(es->name), port_spec.semantics);
        }
      }

      // Push-notify closures are installed by bind_inputs() once the
      // compiled plans (and thus the input bindings) exist.
    }

    // 2. Transfer-rule targets.
    for (const spec::TransferRule& rule : link->spec().transfer_rules()) {
      spec::InfoSemantics semantics = spec::InfoSemantics::kState;
      for (const auto& f : rule.fields)
        if (f.semantics == "event") semantics = spec::InfoSemantics::kEvent;
      declare_element(link->repo_name(rule.target), semantics);
    }
  }
  for (const auto& [name, semantics] : output_fallbacks) {
    if (!repository_.is_declared(name)) declare_element(name, semantics);
  }

  // 3. Interpreters: hand-written automata from the link specs first...
  for (GatewayLink* link : {&link_a_, &link_b_}) {
    GatewayLink& l = *link;
    const auto hook_up = [this, &l](const ta::AutomatonSpec& automaton) {
      ta::InterpreterHooks hooks;
      hooks.can_send = [this, &l](Symbol msg) { return can_construct(l, msg, now_); };
      hooks.request_missing = [this, &l](Symbol msg) { request_missing(l, msg, now_); };
      hooks.resolve = [&l](const std::string& id) -> ta::Value {
        if (l.spec().has_parameter(id)) return l.spec().parameter(id);
        throw SpecError("automaton identifier '" + id + "' is not a link parameter");
      };
      hooks.invoke = [this, &l](const std::string& fn,
                                const std::vector<ta::Value>& args) -> ta::Value {
        if (fn == "horizon" && args.size() == 1)
          return ta::Value{horizon(l.side(), args[0].as_string(), now_)};
        if (fn == "requ" && args.size() == 1) {
          const spec::MessageSpec* ms = l.spec().message(args[0].as_string());
          if (ms == nullptr) return ta::Value{false};
          for (const auto& name : required_elements(l, *ms)) {
            const auto id = repository_.id_of(name);
            if (id && repository_.requested(*id)) return ta::Value{true};
          }
          return ta::Value{false};
        }
        throw SpecError("unknown automaton function '" + fn + "'");
      };
      auto interpreter = std::make_unique<ta::Interpreter>(automaton, std::move(hooks));
      ta::Interpreter* raw = interpreter.get();
      l.interpreters_[automaton.name()] = std::move(interpreter);
      for (const auto& edge : automaton.edges()) {
        if (edge.action == ta::ActionKind::kReceive) l.recv_by_message_[edge.message_sym] = raw;
        if (edge.action == ta::ActionKind::kSend) l.send_by_message_[edge.message_sym] = raw;
      }
    };

    for (const ta::AutomatonSpec& automaton : l.spec().automata()) hook_up(automaton);

    // ...then synthesized automata from the port specifications for
    // messages the spec's temporal part does not cover.
    for (const spec::PortSpec& port_spec : l.spec().ports()) {
      if (port_spec.direction == spec::DataDirection::kInput) {
        if (l.recv_by_message_.count(intern_symbol(port_spec.message)) != 0) continue;
        // Interarrival bounds: explicit tmin/tmax for ET ports; for TT
        // ports the period is a-priori knowledge, so receptions faster
        // than period/2 or silences beyond 2*period violate the spec.
        Duration tmin = port_spec.min_interarrival;
        Duration tmax = port_spec.max_interarrival;
        if (port_spec.is_time_triggered()) {
          if (tmin.is_zero()) tmin = port_spec.period / 2;
          if (tmax == Duration::max()) tmax = port_spec.period * 2;
        }
        const bool bounded = tmin > Duration::zero() || tmax < Duration::max();
        auto automaton = std::make_unique<ta::AutomatonSpec>(
            bounded ? ta::make_interarrival_receive("auto_recv_" + port_spec.message,
                                                    port_spec.message, tmin, tmax)
                    : ta::make_unconstrained_receive("auto_recv_" + port_spec.message,
                                                     port_spec.message));
        hook_up(*automaton);
        l.synthesized_.push_back(std::move(automaton));
      } else {
        if (l.send_by_message_.count(intern_symbol(port_spec.message)) != 0) continue;
        auto automaton = std::make_unique<ta::AutomatonSpec>(
            port_spec.is_time_triggered()
                ? ta::make_periodic_send("auto_send_" + port_spec.message, port_spec.message,
                                         port_spec.period)
                : ta::make_unconstrained_send("auto_send_" + port_spec.message,
                                              port_spec.message));
        hook_up(*automaton);
        l.synthesized_.push_back(std::move(automaton));
      }
    }
  }

  // 4. Resolve every remaining name into the compiled transfer plans,
  //    then bind the input ports to them.
  compile_plans();
  bind_inputs();
}

void VirtualGateway::compile_plans() {
  // Selective redirection (paper Section III-B.1): the repository only
  // retains elements that some outgoing message is constructed from.
  // Elements consumed solely by transfer rules are converted in flight;
  // everything else is discarded at dissection.
  std::set<std::string> needed;
  for (GatewayLink* link : {&link_a_, &link_b_}) {
    for (const spec::PortSpec& port_spec : link->spec().ports()) {
      if (port_spec.direction != spec::DataDirection::kOutput) continue;
      const spec::MessageSpec* ms = link->spec().message(port_spec.message);
      for (const auto& name : required_elements(*link, *ms)) needed.insert(name);
    }
  }

  // Rule plans: one per transfer rule, owned by the gateway and indexed
  // by the interned *repository* name of the rule's source element.
  for (GatewayLink* link : {&link_a_, &link_b_}) {
    for (const spec::TransferRule& rule : link->spec().transfer_rules()) {
      auto plan = std::make_unique<RulePlan>();
      plan->rule = &rule;
      plan->owner = &link->spec();
      const std::string& target_repo = link->repo_name(rule.target);
      const auto target_id = repository_.id_of(target_repo);
      if (!target_id)
        throw SpecError("transfer rule target '" + target_repo +
                        "' did not resolve to a repository slot");
      plan->target_id = *target_id;
      plan->field_syms.reserve(rule.fields.size());
      for (const auto& f : rule.fields) plan->field_syms.push_back(intern_symbol(f.name));
      rule_plans_[intern_symbol(link->repo_name(rule.source))].push_back(std::move(plan));
    }
  }

  for (GatewayLink* link : {&link_a_, &link_b_}) {
    GatewayLink& l = *link;

    // Dissect plans: one per message of the link spec (any of them may
    // arrive at on_input; ports are not a precondition for dissection).
    for (const spec::MessageSpec& ms : l.spec().messages()) {
      DissectPlan plan;
      plan.message = &ms;
      plan.message_sym = ms.name_sym();
      plan.filter = l.spec().filter_for(ms.name());
      for (const spec::ElementSpec* es : ms.convertible_elements()) {
        DissectItem item;
        item.element = es;
        item.element_sym = es->sym();
        const std::string& repo = l.repo_name(es->name);
        item.repo_sym = intern_symbol(repo);
        item.needed = needed.count(repo) != 0;
        if (const auto id = repository_.id_of(item.repo_sym)) item.repo_id = *id;
        if (item.needed && item.repo_id == kInvalidElementId)
          throw SpecError("convertible element '" + repo +
                          "' is needed but did not resolve to a repository slot");
        if (const auto rit = rule_plans_.find(item.repo_sym); rit != rule_plans_.end())
          for (const auto& rp : rit->second) item.rules.push_back(rp.get());
        item.scratch.fields.reserve(es->fields.size());
        for (const spec::FieldSpec& fs : es->fields)
          item.scratch.fields.emplace_back(fs.sym(), ta::Value{});
        plan.items.push_back(std::move(item));
      }
      l.dissect_plans_.emplace(plan.message_sym, std::move(plan));
    }

    // Construct plans: one per output port.
    for (const spec::PortSpec& port_spec : l.spec().ports()) {
      if (port_spec.direction != spec::DataDirection::kOutput) continue;
      const spec::MessageSpec* ms = l.spec().message(port_spec.message);
      auto plan = std::make_unique<ConstructPlan>();
      plan->port_spec = &port_spec;
      plan->message = ms;
      plan->message_sym = ms->name_sym();
      plan->interpreter = l.send_interpreter(plan->message_sym);
      plan->port = l.port(plan->message_sym);
      plan->time_triggered = port_spec.is_time_triggered();
      plan->scratch = spec::make_instance(*ms);

      for (std::size_t ei = 0; ei < ms->elements().size(); ++ei) {
        const spec::ElementSpec& es = ms->elements()[ei];
        if (!es.convertible) continue;
        ConstructItem item;
        item.element = &es;
        item.element_sym = es.sym();
        const std::string& repo = l.repo_name(es.name);
        item.repo_sym = intern_symbol(repo);
        const auto id = repository_.id_of(item.repo_sym);
        if (!id)
          throw SpecError("output element '" + repo +
                          "' of message '" + ms->name() +
                          "' did not resolve to a repository slot");
        item.repo_id = *id;
        item.is_event = repository_.decl_of(*id).semantics == spec::InfoSemantics::kEvent;
        if (item.is_event) plan->consumes_events = true;
        item.instance_element_index = static_cast<std::uint32_t>(ei);
        for (std::size_t fi = 0; fi < es.fields.size(); ++fi) {
          const spec::FieldSpec& fs = es.fields[fi];
          if (fs.is_static()) continue;
          item.fields.push_back(
              ConstructFieldBind{static_cast<std::uint32_t>(fi), fs.sym()});
        }
        plan->required.push_back(item.repo_id);
        plan->items.push_back(std::move(item));
      }

      plan->index = static_cast<std::uint32_t>(l.construct_plans_.size());
      plan->parks_when_held = !plan->time_triggered && plan->interpreter != nullptr &&
                              guard_free_send(plan->interpreter->spec(), plan->message_sym);
      ConstructPlan* raw = plan.get();
      l.construct_plans_.push_back(std::move(plan));
      l.construct_by_message_[raw->message_sym] = raw;
      // Pre-create this message's emitter slot so emission tests one
      // function object instead of hashing into the map. set_emitter()
      // assigns into the same node, so the pointer observes later
      // overrides; unordered_map values are address-stable.
      raw->emitter = &l.emitters_[raw->message_sym];
    }
    // Every plan starts active.
    const std::size_t plans = l.construct_plans_.size();
    l.active_plans_.assign((plans + 63) / 64, 0);
    for (std::size_t i = 0; i < plans; ++i) l.active_plans_[i / 64] |= std::uint64_t{1} << (i % 64);
  }

  // Output wake-up index: element -> the construct plans that read it.
  // Count into wake_offsets_[id], prefix-sum to segment ends, then place
  // each entry by decrementing its element's end down to the start.
  const std::size_t elements = repository_.element_count();
  wake_offsets_.assign(elements + 1, 0);
  for (const GatewayLink* link : {&link_a_, &link_b_})
    for (const auto& plan : link->construct_plans_)
      for (const ElementId id : plan->required) ++wake_offsets_[id];
  for (std::size_t e = 1; e <= elements; ++e) wake_offsets_[e] += wake_offsets_[e - 1];
  wake_plans_.assign(wake_offsets_[elements], 0);
  for (const GatewayLink* link : {&link_a_, &link_b_})
    for (const auto& plan : link->construct_plans_)
      for (const ElementId id : plan->required)
        wake_plans_[--wake_offsets_[id]] =
            static_cast<std::uint32_t>(link->side()) << 31 | plan->index;
}

void VirtualGateway::bind_inputs() {
  for (GatewayLink* link : {&link_a_, &link_b_}) {
    GatewayLink& l = *link;
    l.input_bindings_.clear();
    for (const auto& port_ptr : l.ports_) {
      GatewayLink::InputBinding binding;
      binding.port = port_ptr.get();
      binding.port_spec = &port_ptr->spec();
      binding.message_sym = intern_symbol(binding.port_spec->message);
      binding.is_pull = binding.port_spec->direction == spec::DataDirection::kInput &&
                        binding.port_spec->interaction == spec::Interaction::kPull;
      binding.is_state = binding.port_spec->semantics == spec::InfoSemantics::kState;
      if (const auto it = l.dissect_plans_.find(binding.message_sym);
          it != l.dissect_plans_.end()) {
        binding.plan = &it->second;
        binding.recv_interpreter = l.recv_interpreter(binding.message_sym);
        for (const DissectItem& item : binding.plan->items)
          if (item.repo_id != kInvalidElementId)
            binding.pull_request_ids.push_back(item.repo_id);
      }
      l.input_bindings_.push_back(std::move(binding));
    }
    // Install the push-notify closures only after the binding vector is
    // complete: the closures capture element addresses.
    for (GatewayLink::InputBinding& binding : l.input_bindings_) {
      if (binding.port_spec->direction != spec::DataDirection::kInput ||
          binding.port_spec->interaction != spec::Interaction::kPush)
        continue;
      binding.port->set_notify([this, &l, &binding](vn::Port& p) {
        // Deposit just happened; its instant is the port's last update.
        const Instant now = p.last_update().value_or(Instant::origin());
        if (p.spec().semantics == spec::InfoSemantics::kState) {
          // Borrow the freshest image; the gateway copies what it keeps.
          if (const spec::MessageInstance* m = p.peek()) drain_input(l, binding, *m, now);
        } else if (const spec::MessageInstance* m = p.peek()) {
          // Consume before processing (as the old read() did); the
          // dropped slot's contents stay intact until the ring wraps.
          p.drop_front();
          drain_input(l, binding, *m, now);
        }
      });
    }
  }
}

void VirtualGateway::on_input(int side, const spec::MessageInstance& instance, Instant now) {
  if (!finalized_) throw SpecError("gateway '" + name_ + "' used before finalize()");
  now_ = now;
  GatewayLink& link = this->link(side);
  ++stats_.messages_in;

  const auto plan_it = link.dissect_plans_.find(instance.message_sym());
  if (plan_it == link.dissect_plans_.end()) {
    ++stats_.blocked_unknown;
    if (suppressed_unknown_ != nullptr) suppressed_unknown_->add();
    DECOS_TRACE(trace_, now, sim::TraceKind::kGatewayBlocked, instance.message(),
                "unknown message");
    return;
  }
  DissectPlan& plan = plan_it->second;
  if (!process_input(link, plan, link.recv_interpreter(plan.message_sym), instance, now)) return;

  // Event-driven forwarding: freshly stored elements may enable
  // event-triggered outputs on either side immediately.
  try_outputs(link_a_, now, /*tt_outputs=*/false);
  try_outputs(link_b_, now, /*tt_outputs=*/false);
}

bool VirtualGateway::process_input(GatewayLink& link, DissectPlan& plan,
                                   ta::Interpreter* recv_interpreter,
                                   const spec::MessageInstance& instance, Instant now) {
  if (config_.temporal_filtering && recv_interpreter != nullptr) {
    ta::Interpreter* interpreter = recv_interpreter;
    maybe_restart(link, now);
    // Run due time-triggered edges (e.g. tmax timeouts) before the
    // arrival so the automaton judges it from the correct location.
    if (!interpreter->in_error() && interpreter->poll(now) > 0 && interpreter->in_error())
      note_error(link, interpreter->spec().name(), now);
    const ta::FireResult result = interpreter->on_receive(plan.message_sym, now);
    if (result != ta::FireResult::kFired) {
      ++stats_.blocked_temporal;
      if (suppressed_temporal_ != nullptr) suppressed_temporal_->add();
      if (interpreter->in_error()) note_error(link, interpreter->spec().name(), now);
      DECOS_TRACE(trace_, now, sim::TraceKind::kGatewayBlocked, instance.message(),
                  "temporal violation (side " + std::to_string(link.side()) + ")");
      return false;
    }
  }

  // Value-domain filtering (Section III-B.1): the filter predicate is
  // evaluated on the interface state -- the instance's field values.
  if (plan.filter != nullptr) {
    FilterEnv env{*plan.message, instance, link.spec(), now};
    if (!(*plan.filter)->evaluate(env).as_bool()) {
      ++stats_.blocked_value;
      if (suppressed_value_ != nullptr) suppressed_value_->add();
      DECOS_TRACE(trace_, now, sim::TraceKind::kGatewayBlocked, instance.message(),
                  "value filter (side " + std::to_string(link.side()) + ")");
      return false;
    }
  }

  ++stats_.messages_admitted;
  dissect_and_store(link, plan, instance, now);
  return true;
}

void VirtualGateway::drain_input(GatewayLink& link, const GatewayLink::InputBinding& binding,
                                 const spec::MessageInstance& instance, Instant now) {
  if (binding.plan == nullptr || instance.message_sym() != binding.plan->message_sym) {
    // The deposited instance is not the port's bound message (deposits
    // are not type-checked): resolve it by name through on_input().
    on_input(link.side(), instance, now);
    return;
  }
  now_ = now;
  ++stats_.messages_in;
  if (!process_input(link, *binding.plan, binding.recv_interpreter, instance, now)) return;
  try_outputs(link_a_, now, /*tt_outputs=*/false);
  try_outputs(link_b_, now, /*tt_outputs=*/false);
}

void VirtualGateway::dissect_and_store(GatewayLink& link, DissectPlan& plan,
                                       const spec::MessageInstance& instance, Instant now) {
  (void)link;
  obs::ScopedTimer timer{dissect_ns_};
  std::uint64_t dissect_span = 0;
  if (spans_ != nullptr && spans_->enabled() && instance.trace_id() != 0) {
    dissect_span = spans_->emit(instance.trace_id(), instance.span_id(), obs::Phase::kDissect,
                                track_sym_, plan.message_sym, now, now);
  }
  for (DissectItem& item : plan.items) {
    // Selective redirection: elements nothing consumes are dropped here.
    if (!item.needed && item.rules.empty()) continue;
    const spec::ElementValue* ev = instance.element(item.element_sym);
    if (ev == nullptr) continue;  // structurally absent; decode would have supplied it

    ElementInstance& scratch = item.scratch;
    if (ev->fields.size() < scratch.fields.size()) {
      // Malformed short instance: store only the supplied fields so a
      // later construction fails loudly instead of reusing stale values
      // silently (cold path; may allocate).
      ElementInstance partial;
      partial.observed_at = now;
      if (dissect_span != 0) {
        partial.trace_id = instance.trace_id();
        partial.span_id = dissect_span;
      }
      for (std::size_t i = 0; i < ev->fields.size(); ++i)
        partial.fields.emplace_back(scratch.fields[i].first, ev->fields[i]);
      if (item.needed) {
        if (repository_.store_copy(item.repo_id, partial, now))
          ++stats_.elements_stored;
        else
          ++stats_.element_overflows;
      }
      for (RulePlan* rp : item.rules) apply_rule(*rp, partial, now);
      continue;
    }

    for (std::size_t i = 0; i < scratch.fields.size(); ++i)
      scratch.fields[i].second = ev->fields[i];  // copy-assign: reuse storage
    scratch.observed_at = now;
    scratch.trace_id = dissect_span != 0 ? instance.trace_id() : 0;
    scratch.span_id = dissect_span;
    if (item.needed) {
      if (repository_.store_copy(item.repo_id, scratch, now))
        ++stats_.elements_stored;
      else
        ++stats_.element_overflows;
    }
    for (RulePlan* rp : item.rules) apply_rule(*rp, scratch, now);
  }
}

void VirtualGateway::apply_rule(RulePlan& plan, const ElementInstance& source, Instant now) {
  const spec::TransferRule& rule = *plan.rule;
  ElementInstance& target = plan.scratch;

  // Start from the current derived state (or the rule's initial values).
  if (const ElementInstance* current = repository_.peek(plan.target_id); current != nullptr) {
    target = *current;  // copy-assign: reuse the scratch's storage
  } else {
    target.fields.clear();
    for (std::size_t i = 0; i < rule.fields.size(); ++i)
      target.set_field(plan.field_syms[i], rule.fields[i].init);
  }
  // The conversion is caused by (and as fresh as) the source update.
  target.observed_at = now;
  target.trace_id = source.trace_id;
  target.span_id = source.span_id;

  ConversionEnv env{target, source, *plan.owner, now};
  for (std::size_t i = 0; i < rule.fields.size(); ++i)
    target.set_field(plan.field_syms[i], rule.fields[i].update->evaluate(env));

  repository_.store_copy(plan.target_id, target, now);
  ++stats_.conversions;
}

bool VirtualGateway::can_construct(const ConstructPlan& plan, Instant now) const {
  for (const ElementId id : plan.required) {
    if (config_.accuracy_check_at_store) {
      // Ablation: construction does not re-check temporal accuracy.
      if (repository_.peek(id) == nullptr) return false;
    } else if (!repository_.available(id, now)) {
      return false;
    }
  }
  return true;
}

bool VirtualGateway::can_construct(const GatewayLink& link, Symbol message, Instant now) const {
  const auto it = link.construct_by_message_.find(message);
  if (it != link.construct_by_message_.end()) return can_construct(*it->second, now);
  // No compiled plan: a hand-written automaton may guard a message that
  // has no output port. Resolve by name (cold path).
  const spec::MessageSpec* ms = link.spec().message(symbol_name(message));
  if (ms == nullptr) return false;
  for (const auto& name : required_elements(link, *ms)) {
    const auto id = repository_.id_of(name);
    if (!id) return false;
    if (config_.accuracy_check_at_store) {
      if (repository_.peek(*id) == nullptr) return false;
    } else if (!repository_.available(*id, now)) {
      return false;
    }
  }
  return true;
}

void VirtualGateway::request_missing(GatewayLink& link, Symbol message, Instant now) {
  const auto it = link.construct_by_message_.find(message);
  if (it != link.construct_by_message_.end()) {
    for (const ElementId id : it->second->required)
      if (!repository_.available(id, now)) repository_.set_request(id);
  } else {
    const spec::MessageSpec* ms = link.spec().message(symbol_name(message));
    if (ms == nullptr) return;
    for (const auto& name : required_elements(link, *ms)) {
      const auto id = repository_.id_of(name);
      if (id && !repository_.available(*id, now)) repository_.set_request(*id);
    }
  }
  ++stats_.construction_held;
  // A due emission held back because its elements are missing or stale is
  // a construction-time suppression, same as a mid-build fetch failure.
  if (suppressed_construction_ != nullptr) suppressed_construction_->add();
}

void VirtualGateway::wake_touched() {
  // With no plan parked there is nobody to wake: the touches are moot.
  const std::span<const ElementId> touched =
      parked_ != 0 ? repository_.touched() : std::span<const ElementId>{};
  for (const ElementId id : touched) {
    for (std::uint32_t k = wake_offsets_[id]; k < wake_offsets_[id + 1]; ++k) {
      GatewayLink& link = (wake_plans_[k] >> 31) != 0 ? link_b_ : link_a_;
      const std::uint32_t index = wake_plans_[k] & 0x7fffffffu;
      ConstructPlan& plan = *link.construct_plans_[index];
      if (plan.park == ConstructPlan::Park::kActive) continue;
      if (plan.park == ConstructPlan::Park::kHeld) {
        --link.parked_held_;
        // Not yet passed by the walk in progress: evaluated there.
        if (link.pass_cursor_ != GatewayLink::kNoPass && index >= link.pass_cursor_)
          ++link.woken_ahead_;
      }
      plan.park = ConstructPlan::Park::kActive;
      --parked_;
      link.active_plans_[index / 64] |= std::uint64_t{1} << (index % 64);
    }
  }
  repository_.clear_touched();
}

void VirtualGateway::park(GatewayLink& link, ConstructPlan& plan, ConstructPlan::Park why) {
  plan.park = why;
  ++parked_;
  link.active_plans_[plan.index / 64] &= ~(std::uint64_t{1} << (plan.index % 64));
  if (why == ConstructPlan::Park::kHeld) ++link.parked_held_;
}

void VirtualGateway::try_outputs(GatewayLink& link, Instant now, bool tt_outputs) {
  now_ = now;
  // Nothing to evaluate or count; the other link's pass drains touches.
  if (link.construct_plans_.empty()) return;
  wake_touched();
  // Output wake-up (DESIGN.md S29): the walk visits active plans only. A
  // parked plan's evaluation provably cannot emit -- an idle one would
  // be skipped by the freshness gate, a held one would only be held
  // again, re-setting request bits that are already set -- until one of
  // its required elements is touched. So each pass counts every
  // parked-held plan it skips as one held evaluation, in one step.
  const std::uint32_t parked_held = link.parked_held_;
  link.pass_cursor_ = 0;
  link.woken_ahead_ = 0;
  const std::size_t words = link.active_plans_.size();
  for (;;) {
    // Next active plan at or after the cursor. The live word is re-read
    // every time: an emission may wake plans ahead of the walk.
    std::size_t w = link.pass_cursor_ / 64;
    if (w >= words) break;
    std::uint64_t bits = link.active_plans_[w] & (~std::uint64_t{0} << (link.pass_cursor_ % 64));
    while (bits == 0 && ++w < words) bits = link.active_plans_[w];
    if (bits == 0) break;
    const std::size_t index = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
    link.pass_cursor_ = index + 1;
    ConstructPlan& plan = *link.construct_plans_[index];
    if (plan.time_triggered && !tt_outputs) continue;
    if (plan.interpreter == nullptr || plan.interpreter->in_error()) continue;

    // Event-triggered outputs of state-only messages emit once per fresh
    // repository update; without this gate an always-enabled m! edge
    // would re-send the same image on every dispatch. Only a store to a
    // required element moves the sum, and a store wakes the plan.
    std::uint64_t version_sum = 0;
    if (!plan.time_triggered && !plan.consumes_events) {
      for (const ElementId id : plan.required) version_sum += repository_.version(id);
      if (version_sum == plan.last_emitted_version_sum || version_sum == 0) {
        park(link, plan, ConstructPlan::Park::kIdle);
        continue;
      }
    }

    // Emit as many instances as the automaton allows (event queues may
    // hold several pending instances); state-only messages emit once.
    ta::FireResult result = ta::FireResult::kNotEnabled;
    int guard = 0;
    for (; guard < 64; ++guard) {
      result = plan.interpreter->try_send(plan.message_sym, now);
      if (result != ta::FireResult::kFired) break;
      const bool emitted = construct_and_emit(link, plan, now);
      // Consumption (even by a failed construction) may wake plans.
      wake_touched();
      if (!emitted) break;
      if (!plan.consumes_events) {
        if (!plan.time_triggered) plan.last_emitted_version_sum = version_sum;
        break;
      }
    }
    // Held without emitting. (A plan that just emitted stays active: on
    // a per-frame flow it is woken again at once, so parking it would
    // only add work.) A state image available now may go stale before
    // the next touch (a new request bit), so such a plan stays active.
    if (guard == 0 && result == ta::FireResult::kNotEnabled && plan.parks_when_held) {
      bool state_available = false;
      for (const ConstructItem& item : plan.items)
        if (!item.is_event && repository_.available(item.repo_id, now)) state_available = true;
      if (!state_available) park(link, plan, ConstructPlan::Park::kHeld);
    }
  }
  const std::uint32_t skipped_held = parked_held - link.woken_ahead_;
  if (skipped_held != 0) {
    stats_.construction_held += skipped_held;
    if (suppressed_construction_ != nullptr) suppressed_construction_->add(skipped_held);
  }
  link.pass_cursor_ = GatewayLink::kNoPass;
}

bool VirtualGateway::construct_and_emit(GatewayLink& link, ConstructPlan& plan, Instant now) {
  obs::ScopedTimer timer{construct_ns_};
  spec::MessageInstance& instance = plan.scratch;
  instance.set_send_time(now);
  instance.set_trace(0, 0);

  // The constructed message continues the trace of the first traced
  // element it is built from; its span parents under that element's
  // repository-wait span.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;

  for (const ConstructItem& item : plan.items) {
    const ElementInstance* stored = nullptr;
    if (item.is_event) {
      // Exactly-once consumption regardless of temporal accuracy; the
      // swap leaves the scratch's old storage in the ring for reuse.
      if (repository_.consume_into(item.repo_id, plan.event_scratch))
        stored = &plan.event_scratch;
    } else {
      stored = repository_.fetch_state(item.repo_id, now,
                                       /*ignore_accuracy=*/config_.accuracy_check_at_store);
    }
    if (stored == nullptr) {
      ++stats_.construction_failed;
      if (suppressed_construction_ != nullptr) suppressed_construction_->add();
      DECOS_TRACE(trace_, now, sim::TraceKind::kGatewayBlocked, plan.message->name(),
                  "element '" + symbol_name(item.repo_sym) + "' unavailable at construction");
      return false;
    }
    if (staleness_ns_ != nullptr) staleness_ns_->observe((now - stored->observed_at).ns());
    if (spans_ != nullptr && spans_->enabled() && stored->trace_id != 0) {
      const std::uint64_t wait =
          spans_->emit(stored->trace_id, stored->span_id, obs::Phase::kRepoWait, track_sym_,
                       item.repo_sym, stored->observed_at, now);
      if (trace_id == 0) {
        trace_id = stored->trace_id;
        parent_span = wait;
      }
    }
    spec::ElementValue& ev = instance.elements()[item.instance_element_index];
    for (const ConstructFieldBind& bind : item.fields) {
      const ta::Value* v = stored->field(bind.field_sym);
      if (v == nullptr) {
        ++stats_.construction_failed;
        if (suppressed_construction_ != nullptr) suppressed_construction_->add();
        DECOS_TRACE(trace_, now, sim::TraceKind::kGatewayBlocked, plan.message->name(),
                    "field '" + symbol_name(bind.field_sym) + "' missing in element '" +
                        symbol_name(item.repo_sym) + "'");
        return false;
      }
      ev.fields[bind.field_index] = *v;  // copy-assign: reuse storage
    }
  }

  ++stats_.messages_constructed;
  if (forwarded_metric_ != nullptr) forwarded_metric_->add();
  DECOS_TRACE(trace_, now, sim::TraceKind::kGatewayForwarded, plan.message->name(),
              "side " + std::to_string(link.side()));
  if (trace_id != 0) {
    const std::uint64_t construct_span = spans_->emit(
        trace_id, parent_span, obs::Phase::kConstruct, track_sym_, plan.message_sym, now, now);
    instance.set_trace(trace_id, construct_span);
  }

  // plan.emitter points at this message's pre-created slot in the
  // link's emitter table; an empty function object means "no override".
  if (plan.emitter != nullptr && *plan.emitter) {
    (*plan.emitter)(instance);
  } else if (plan.port != nullptr) {
    plan.port->deposit(instance, now);  // copy-assign into the port's storage
  }
  return true;
}

void VirtualGateway::note_error(GatewayLink& link, const std::string& automaton_name,
                                Instant now) {
  if (link.error_since_.count(automaton_name) != 0) return;
  link.error_since_[automaton_name] = now;
  ++stats_.automaton_errors;
  DECOS_TRACE(trace_, now, sim::TraceKind::kAutomatonError, automaton_name,
              "side " + std::to_string(link.side()));
}

void VirtualGateway::maybe_restart(GatewayLink& link, Instant now) {
  if (config_.restart_delay <= Duration::zero()) return;
  for (auto it = link.error_since_.begin(); it != link.error_since_.end();) {
    if (now - it->second >= config_.restart_delay) {
      link.interpreters_.at(it->first)->restart(now);
      ++stats_.restarts;
      it = link.error_since_.erase(it);
    } else {
      ++it;
    }
  }
}

void VirtualGateway::dispatch(Instant now) {
  if (!finalized_) throw SpecError("gateway '" + name_ + "' used before finalize()");
  now_ = now;
  for (GatewayLink* link : {&link_a_, &link_b_}) {
    maybe_restart(*link, now);

    // Drain pull-mode input ports: each port's pending backlog runs
    // through its precompiled binding -- one plan/interpreter resolution
    // and one pull-request scan per port per dispatch, not per instance.
    // The per-instance admission sequence (and with it every artifact)
    // is preserved; only the lookups are amortized.
    for (const GatewayLink::InputBinding& binding : link->input_bindings_) {
      if (!binding.is_pull) continue;
      if (config_.pull_only_on_request) {
        bool wanted = false;
        for (const ElementId id : binding.pull_request_ids)
          if (repository_.requested(id)) {
            wanted = true;
            break;
          }
        if (!wanted) continue;
      }
      vn::Port& port = *binding.port;
      while (port.has_data()) {
        if (binding.is_state) {
          // State: borrow the one current image, no consumption.
          if (const spec::MessageInstance* m = port.peek()) drain_input(*link, binding, *m, now);
          break;
        }
        const spec::MessageInstance* m = port.peek();
        if (m == nullptr) break;
        port.drop_front();  // consume first; the slot stays intact until the ring wraps
        drain_input(*link, binding, *m, now);
      }
    }

    // Time-triggered edges (timeout detection) of all automata.
    for (auto& [automaton_name, interpreter] : link->interpreters_) {
      if (interpreter->in_error()) continue;
      if (interpreter->poll(now) > 0 && interpreter->in_error())
        note_error(*link, automaton_name, now);
    }
  }

  try_outputs(link_a_, now, /*tt_outputs=*/true);
  try_outputs(link_b_, now, /*tt_outputs=*/true);
}

void VirtualGateway::start(sim::Simulator& simulator) {
  if (!finalized_) finalize();
  bind_observability(simulator);
  start_tick(simulator);
}

void VirtualGateway::start_tick(sim::Simulator& simulator) {
  // Fixed-period kernel task: one pooled event node re-filed in place
  // every dispatch_period for the lifetime of the gateway.
  tick_task_ = simulator.schedule_periodic(simulator.now() + config_.dispatch_period,
                                           config_.dispatch_period,
                                           [this, &simulator] { dispatch(simulator.now()); });
}

VirtualGateway::LinkHealth VirtualGateway::link_health(int side) const {
  const GatewayLink& link = side == 0 ? link_a_ : link_b_;
  for (const auto& [automaton_name, interpreter] : link.interpreters_) {
    if (interpreter->in_error()) return LinkHealth::kError;
  }
  return LinkHealth::kHealthy;
}

std::vector<std::string> VirtualGateway::failed_automata(int side) const {
  const GatewayLink& link = side == 0 ? link_a_ : link_b_;
  std::vector<std::string> out;
  for (const auto& [automaton_name, interpreter] : link.interpreters_) {
    if (interpreter->in_error()) out.push_back(automaton_name);
  }
  return out;
}

Duration VirtualGateway::horizon(int side, const std::string& message_name, Instant now) const {
  const GatewayLink& link = side == 0 ? link_a_ : link_b_;
  if (const auto sym = SymbolTable::global().lookup(message_name)) {
    const auto it = link.construct_by_message_.find(*sym);
    if (it != link.construct_by_message_.end())
      return repository_.horizon(it->second->required, now);
  }
  const spec::MessageSpec* ms = link.spec().message(message_name);
  if (ms == nullptr)
    throw SpecError("horizon(): unknown message '" + message_name + "' on side " +
                    std::to_string(side));
  const auto elements = required_elements(link, *ms);
  return repository_.horizon(elements, now);
}

}  // namespace decos::core
