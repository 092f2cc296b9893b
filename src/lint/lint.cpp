#include "lint/lint.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "lint/flowgraph.hpp"
#include "lint/symbolic.hpp"
#include "lint/timing.hpp"
#include "rt/framing.hpp"

namespace decos::lint {
namespace {

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

ta::StaticType field_static_type(spec::FieldType type) {
  switch (type) {
    case spec::FieldType::kBoolean: return ta::StaticType::kBool;
    case spec::FieldType::kFloat32:
    case spec::FieldType::kFloat64: return ta::StaticType::kReal;
    case spec::FieldType::kString: return ta::StaticType::kString;
    default: return ta::StaticType::kInt;  // integers and timestamps
  }
}

bool int_like(ta::StaticType t) {
  return t == ta::StaticType::kInt || t == ta::StaticType::kBool;
}

std::string format_bytes(double bytes) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%g", bytes);
  return buffer;
}

std::string side_loc(const GatewayModel& model, int side) {
  std::string das = model.links[side] != nullptr ? model.links[side]->das() : std::string{};
  return "link[" + std::to_string(side) + "]" + (das.empty() ? "" : " '" + das + "'");
}

/// Type environment for lint passes: a name->type map with the link
/// parameters as fallback and a context-dependent function set that
/// mirrors the runtime environments (FilterEnv supports abs only;
/// ConversionEnv adds min/max; the automaton interpreter adds
/// horizon/requ via the gateway hooks).
class LintTypeEnv final : public ta::TypeEnv {
 public:
  enum class Functions { kFilter, kConversion, kAutomaton };

  LintTypeEnv(Functions functions, bool permissive)
      : functions_{functions}, permissive_{permissive} {}

  /// First binding wins (e.g. transfer targets shadow source fields,
  /// matching ConversionEnv's lookup order).
  void bind(const std::string& name, ta::StaticType type) { types_.emplace(name, type); }

  void bind_element(const spec::ElementSpec& element) {
    for (const auto& f : element.fields) bind(f.name, field_static_type(f.type));
  }

  void bind_parameters(const spec::LinkSpec& link) {
    for (const auto& [name, value] : link.parameters()) bind(name, ta::static_type_of(value));
  }

  Result<ta::StaticType> type_of(const std::string& name) const override {
    if (name == "t_now" || name == "tnow") return ta::StaticType::kInt;
    if (const auto it = types_.find(name); it != types_.end()) return it->second;
    if (permissive_) return ta::StaticType::kAny;
    return Result<ta::StaticType>::failure("unknown identifier '" + name + "'");
  }

  Result<ta::StaticType> type_of_call(const std::string& fn,
                                      const std::vector<ta::StaticType>& args) const override {
    using ta::StaticType;
    const auto numeric = [&](std::size_t i) {
      return args[i] != StaticType::kString && args[i] != StaticType::kBool;
    };
    if (fn == "abs") {
      if (args.size() != 1)
        return Result<StaticType>::failure("abs() takes 1 argument, got " +
                                           std::to_string(args.size()));
      if (!numeric(0)) return Result<StaticType>::failure("abs() needs a numeric argument");
      return args[0];
    }
    if ((fn == "min" || fn == "max") && functions_ != Functions::kFilter) {
      if (args.size() != 2)
        return Result<StaticType>::failure(fn + "() takes 2 arguments, got " +
                                           std::to_string(args.size()));
      if (args[0] == StaticType::kString || args[1] == StaticType::kString)
        return Result<StaticType>::failure(fn + "() needs numeric arguments");
      if (args[0] == StaticType::kReal || args[1] == StaticType::kReal) return StaticType::kReal;
      if (args[0] == StaticType::kAny || args[1] == StaticType::kAny) return StaticType::kAny;
      return StaticType::kInt;
    }
    if (functions_ == Functions::kAutomaton && (fn == "horizon" || fn == "requ")) {
      if (args.size() != 1)
        return Result<StaticType>::failure(fn + "() takes 1 argument (a message name), got " +
                                           std::to_string(args.size()));
      if (args[0] != StaticType::kString && args[0] != StaticType::kAny)
        return Result<StaticType>::failure(fn + "() needs a message-name string argument");
      return fn == "horizon" ? StaticType::kInt : StaticType::kBool;
    }
    return Result<StaticType>::failure("unknown function '" + fn + "' in this context");
  }

 private:
  Functions functions_;
  bool permissive_;
  std::unordered_map<std::string, ta::StaticType> types_;
};

const spec::ElementSpec* find_element(const spec::LinkSpec* link, const std::string& name) {
  if (link == nullptr) return nullptr;
  for (const auto& m : link->messages()) {
    if (const spec::ElementSpec* e = m.element(name); e != nullptr) return e;
  }
  return nullptr;
}

/// What produces repository element `repo`: an input-port element, a
/// transfer-rule target, or nothing.
struct Producer {
  const spec::ElementSpec* element = nullptr;  // port-produced
  const spec::PortSpec* port = nullptr;        // its input port
  const spec::TransferRule* rule = nullptr;    // rule-produced
  int side = -1;
  spec::InfoSemantics semantics = spec::InfoSemantics::kState;

  bool found() const { return element != nullptr || rule != nullptr; }
};

Producer find_producer(const GatewayModel& model, const std::string& repo) {
  Producer out;
  for (int side = 0; side < 2; ++side) {
    const spec::LinkSpec* link = model.links[side];
    if (link == nullptr) continue;
    for (const auto& port : link->ports()) {
      if (port.direction != spec::DataDirection::kInput) continue;
      const spec::MessageSpec* ms = link->message(port.message);
      if (ms == nullptr) continue;
      for (const auto* e : ms->convertible_elements()) {
        if (model.repo_name(side, e->name) != repo) continue;
        out.element = e;
        out.port = &port;
        out.side = side;
        out.semantics = port.semantics;
        return out;
      }
    }
  }
  for (int side = 0; side < 2; ++side) {
    const spec::LinkSpec* link = model.links[side];
    if (link == nullptr) continue;
    for (const auto& rule : link->transfer_rules()) {
      if (model.repo_name(side, rule.target) != repo) continue;
      out.rule = &rule;
      out.side = side;
      out.semantics = spec::InfoSemantics::kState;
      for (const auto& f : rule.fields)
        if (f.semantics == "event") out.semantics = spec::InfoSemantics::kEvent;
      return out;
    }
  }
  return out;
}

/// Repository names required by some output message on either side.
std::set<std::string> output_required_elements(const GatewayModel& model) {
  std::set<std::string> out;
  for (int side = 0; side < 2; ++side) {
    const spec::LinkSpec* link = model.links[side];
    if (link == nullptr) continue;
    for (const auto& port : link->ports()) {
      if (port.direction != spec::DataDirection::kOutput) continue;
      const spec::MessageSpec* ms = link->message(port.message);
      if (ms == nullptr) continue;
      for (const auto* e : ms->convertible_elements()) out.insert(model.repo_name(side, e->name));
    }
  }
  return out;
}

/// A TT period that neither divides nor is a whole multiple of the
/// round drifts against the TDMA schedule.
bool incommensurable(Duration period, Duration round) {
  return period > Duration::zero() && round > Duration::zero() &&
         !period.mod(round).is_zero() && !round.mod(period).is_zero();
}

// ---------------------------------------------------------------------------
// DL001 -- transfer-rule consistency
// ---------------------------------------------------------------------------

void check_transfer_rules(const GatewayModel& model, bool standalone, Report& report) {
  std::set<std::string> port_produced;
  for (int side = 0; side < 2; ++side) {
    const spec::LinkSpec* link = model.links[side];
    if (link == nullptr) continue;
    for (const auto& port : link->ports()) {
      if (port.direction != spec::DataDirection::kInput) continue;
      const spec::MessageSpec* ms = link->message(port.message);
      if (ms == nullptr) continue;
      for (const auto* e : ms->convertible_elements())
        port_produced.insert(model.repo_name(side, e->name));
    }
  }

  std::map<std::string, int> target_count;  // repo target -> #rules
  for (int side = 0; side < 2; ++side) {
    const spec::LinkSpec* link = model.links[side];
    if (link == nullptr) continue;
    for (const auto& rule : link->transfer_rules())
      ++target_count[model.repo_name(side, rule.target)];
  }

  const std::set<std::string> needed = output_required_elements(model);

  for (int side = 0; side < 2; ++side) {
    const spec::LinkSpec* link = model.links[side];
    if (link == nullptr) continue;
    for (const auto& rule : link->transfer_rules()) {
      const std::string loc = side_loc(model, side) + ": transfer rule '" + rule.target + "'";
      const std::string src_repo = model.repo_name(side, rule.source);
      const std::string tgt_repo = model.repo_name(side, rule.target);

      if (src_repo == tgt_repo) {
        report.add(kRuleTransfer, Severity::kError, loc,
                   "rule derives element '" + rule.target + "' from itself",
                   "a conversion rule needs a distinct source element");
      }

      bool source_exists = port_produced.count(src_repo) != 0;
      if (!source_exists) {
        // A chain: the source may be another rule's derived element.
        for (int other = 0; other < 2 && !source_exists; ++other) {
          const spec::LinkSpec* ol = model.links[other];
          if (ol == nullptr) continue;
          for (const auto& r2 : ol->transfer_rules()) {
            if (&r2 == &rule) continue;
            if (model.repo_name(other, r2.target) == src_repo) source_exists = true;
          }
        }
      }
      if (!source_exists && src_repo != tgt_repo) {
        if (standalone) {
          report.add(kRuleTransfer, Severity::kNote, loc,
                     "source element '" + rule.source +
                         "' is not produced by this link; the opposite link of the gateway "
                         "must supply it");
        } else {
          report.add(kRuleTransfer, Severity::kError, loc,
                     "rule derives '" + rule.target + "' from '" + rule.source +
                         "', but no input port on either link carries a convertible element '" +
                         src_repo + "'",
                     "check element names and <rename> entries, or add an input port whose "
                     "message carries the element");
        }
      }

      if (port_produced.count(tgt_repo) != 0) {
        report.add(kRuleTransfer, Severity::kWarning, loc,
                   "derived element '" + tgt_repo +
                       "' is also stored directly from an input port; the two producers will "
                       "overwrite each other",
                   "rename the derived element or drop the conversion rule");
      }
      if (target_count[tgt_repo] > 1) {
        report.add(kRuleTransfer, Severity::kError, loc,
                   "element '" + tgt_repo + "' is derived by " +
                       std::to_string(target_count[tgt_repo]) + " transfer rules",
                   "merge the rules; the repository holds one image per element");
      }
      if (!standalone && needed.count(tgt_repo) == 0) {
        report.add(kRuleTransfer, Severity::kWarning, loc,
                   "derived element '" + tgt_repo + "' is not consumed by any output message",
                   "remove the dead rule or add the element to an outgoing message");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// DL002 -- static expression typing
// ---------------------------------------------------------------------------

void check_filter_types(const GatewayModel& model, int side, Report& report) {
  const spec::LinkSpec& link = *model.links[side];
  for (const auto& [message_name, predicate] : link.filters()) {
    const spec::MessageSpec* ms = link.message(message_name);
    if (ms == nullptr || !predicate) continue;  // DL000 covers
    LintTypeEnv env{LintTypeEnv::Functions::kFilter, /*permissive=*/false};
    for (const auto& element : ms->elements()) env.bind_element(element);
    env.bind_parameters(link);
    const std::string loc = side_loc(model, side) + ": filter for message '" + message_name + "'";
    auto t = predicate->infer_type(env);
    if (!t.ok()) {
      report.add(kRuleTypes, Severity::kError, loc, t.error().message,
                 "the filter is evaluated over the instance's field values and the link "
                 "parameters");
      continue;
    }
    if (t.value() == ta::StaticType::kString) {
      report.add(kRuleTypes, Severity::kError, loc,
                 "filter predicate evaluates to a string, not a boolean",
                 "write a comparison, e.g. `value >= 0`");
    }
  }
}

void check_transfer_types(const GatewayModel& model, int side, bool standalone, Report& report) {
  const spec::LinkSpec& link = *model.links[side];
  for (const auto& rule : link.transfer_rules()) {
    const std::string loc = side_loc(model, side) + ": transfer rule '" + rule.target + "'";

    // Resolve the source element's field types: the owning link first,
    // then the opposite link through the repository namespace.
    const spec::ElementSpec* source = find_element(&link, rule.source);
    if (source == nullptr) {
      const std::string src_repo = model.repo_name(side, rule.source);
      const spec::LinkSpec* other = model.links[1 - side];
      if (other != nullptr) {
        for (const auto& ms : other->messages()) {
          for (const auto* e : ms.convertible_elements()) {
            if (model.repo_name(1 - side, e->name) == src_repo) source = e;
          }
        }
      }
    }
    // The derived element's declared types, when it appears as a message
    // element (the usual case: it constitutes an output message).
    const spec::ElementSpec* target = find_element(&link, rule.target);
    if (target == nullptr) target = find_element(model.links[1 - side], rule.target);

    // Unresolvable names stay permissive in standalone link lint (the
    // opposite link may supply them); in a full gateway model every
    // identifier must resolve.
    const bool permissive = standalone && source == nullptr;
    LintTypeEnv env{LintTypeEnv::Functions::kConversion, permissive};
    if (target != nullptr) {
      env.bind_element(*target);
    } else {
      for (const auto& f : rule.fields) env.bind(f.name, ta::static_type_of(f.init));
    }
    if (source != nullptr) env.bind_element(*source);
    env.bind_parameters(link);

    for (const auto& f : rule.fields) {
      if (!f.update) continue;  // DL000 covers
      auto t = f.update->infer_type(env);
      if (!t.ok()) {
        report.add(kRuleTypes, Severity::kError, loc + ", field '" + f.name + "'",
                   t.error().message,
                   "updates may reference the derived element's own fields, the source "
                   "element's fields and the link parameters");
        continue;
      }
      if (target == nullptr) continue;
      const spec::FieldSpec* declared = target->field(f.name);
      if (declared == nullptr) continue;
      const ta::StaticType declared_type = field_static_type(declared->type);
      const ta::StaticType inferred = t.value();
      if (inferred == ta::StaticType::kAny) continue;
      if ((declared_type == ta::StaticType::kString) != (inferred == ta::StaticType::kString)) {
        report.add(kRuleTypes, Severity::kError, loc + ", field '" + f.name + "'",
                   "update expression has type " + ta::static_type_name(inferred) +
                       " but the element declares field '" + f.name + "' as " +
                       ta::static_type_name(declared_type),
                   "semantic conversion would throw at runtime");
      } else if (int_like(declared_type) && inferred == ta::StaticType::kReal) {
        report.add(kRuleTypes, Severity::kWarning, loc + ", field '" + f.name + "'",
                   "real-valued update is stored into integer field '" + f.name +
                       "'; the fraction is truncated at encoding");
      }
    }
  }
}

/// Construction compatibility: every non-static field of an outgoing
/// convertible element must be produced -- by name, with a compatible
/// type -- on the repository side. This is the static counterpart of the
/// runtime `construction_failed` counter.
void check_construction_types(const GatewayModel& model, Report& report) {
  for (int side = 0; side < 2; ++side) {
    const spec::LinkSpec* link = model.links[side];
    if (link == nullptr) continue;
    for (const auto& port : link->ports()) {
      if (port.direction != spec::DataDirection::kOutput) continue;
      const spec::MessageSpec* ms = link->message(port.message);
      if (ms == nullptr) continue;
      for (const auto* element : ms->convertible_elements()) {
        const std::string repo = model.repo_name(side, element->name);
        const Producer producer = find_producer(model, repo);
        if (!producer.found()) continue;  // DL005 reports the dead message
        const std::string loc = side_loc(model, side) + ": output message '" + port.message +
                                "', element '" + element->name + "'";
        for (const auto& field : element->fields) {
          if (field.is_static()) continue;
          if (producer.element != nullptr) {
            const spec::FieldSpec* produced = producer.element->field(field.name);
            if (produced == nullptr) {
              report.add(kRuleTypes, Severity::kError, loc,
                         "field '" + field.name + "' has no counterpart in producing element '" +
                             producer.element->name + "' (" + side_loc(model, producer.side) + ")",
                         "construction would fail at runtime; align the field names of the "
                         "two links");
              continue;
            }
            const ta::StaticType want = field_static_type(field.type);
            const ta::StaticType have = field_static_type(produced->type);
            if ((want == ta::StaticType::kString) != (have == ta::StaticType::kString)) {
              report.add(kRuleTypes, Severity::kError, loc,
                         "field '" + field.name + "' is " + ta::static_type_name(want) +
                             " here but the producing element carries " +
                             ta::static_type_name(have),
                         "semantic conversion would throw at runtime");
            } else if (int_like(want) && have == ta::StaticType::kReal) {
              report.add(kRuleTypes, Severity::kWarning, loc,
                         "field '" + field.name +
                             "' narrows the producer's real value to an integer");
            }
          } else if (producer.rule != nullptr) {
            const bool produced =
                std::any_of(producer.rule->fields.begin(), producer.rule->fields.end(),
                            [&](const spec::TransferFieldRule& fr) { return fr.name == field.name; });
            if (!produced) {
              report.add(kRuleTypes, Severity::kError, loc,
                         "field '" + field.name + "' is not derived by transfer rule '" +
                             producer.rule->target + "'",
                         "add a field rule for it or mark the field static");
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// DL004 -- automaton structure (plus DL002 for guard/assignment typing)
// ---------------------------------------------------------------------------

void check_automata(const GatewayModel& model, int side, Report& report) {
  const spec::LinkSpec& link = *model.links[side];
  for (const auto& automaton : link.automata()) {
    const std::string loc =
        side_loc(model, side) + ": automaton '" + automaton.name() + "'";

    if (auto st = automaton.validate(); !st.ok()) {
      report.add(kRuleAutomaton, Severity::kError, loc, st.error().message);
      continue;  // structure is unsound; further analysis would mislead
    }

    // Reachability from the initial location (guards ignored: an edge
    // whose guard is never true is a semantic question, not structure).
    std::unordered_map<std::string, std::vector<const ta::Edge*>> out_edges;
    for (const auto& e : automaton.edges()) out_edges[e.source].push_back(&e);
    std::unordered_set<std::string> reached{automaton.initial()};
    std::deque<std::string> frontier{automaton.initial()};
    while (!frontier.empty()) {
      const std::string at = std::move(frontier.front());
      frontier.pop_front();
      for (const ta::Edge* e : out_edges[at]) {
        if (reached.insert(e->target).second) frontier.push_back(e->target);
      }
    }
    // The error location is entered implicitly on temporal violations,
    // so it does not need an explicit incoming edge.
    for (const auto& location : automaton.locations()) {
      if (reached.count(location) == 0 && location != automaton.error()) {
        report.add(kRuleAutomaton, Severity::kWarning, loc,
                   "location '" + location + "' is unreachable from the initial location '" +
                       automaton.initial() + "'",
                   "add an edge or remove the location");
      }
    }

    // Identifier resolution mirrors the interpreter's Env: t_now, the
    // automaton's clocks and variables (assignments may introduce
    // variables on first use), then the link parameters.
    std::unordered_set<std::string> known{"t_now", "tnow"};
    for (const auto& c : automaton.clocks()) known.insert(c);
    for (const auto& [name, init] : automaton.variables()) known.insert(name);
    for (const auto& [name, value] : link.parameters()) known.insert(name);
    std::unordered_set<std::string> declared = known;
    for (const auto& e : automaton.edges())
      for (const auto& a : e.assignments) known.insert(a.target);

    LintTypeEnv env{LintTypeEnv::Functions::kAutomaton, /*permissive=*/false};
    for (const auto& c : automaton.clocks()) env.bind(c, ta::StaticType::kInt);
    for (const auto& [name, init] : automaton.variables()) env.bind(name, ta::static_type_of(init));
    env.bind_parameters(link);
    for (const auto& e : automaton.edges())
      for (const auto& a : e.assignments) env.bind(a.target, ta::StaticType::kAny);

    for (const auto& e : automaton.edges()) {
      const std::string edge_loc = loc + ", edge " + e.source + " -> " + e.target;
      std::vector<std::string> identifiers;
      if (e.guard) e.guard->collect_identifiers(identifiers);
      for (const auto& a : e.assignments) a.value->collect_identifiers(identifiers);
      for (const auto& id : identifiers) {
        if (known.count(id) == 0) {
          report.add(kRuleAutomaton, Severity::kError, edge_loc,
                     "undefined identifier '" + id + "'",
                     "declare a clock or variable in the automaton, or a <param> on the link");
        }
      }
      for (const auto& a : e.assignments) {
        if (declared.count(a.target) == 0) {
          report.add(kRuleAutomaton, Severity::kNote, edge_loc,
                     "assignment introduces variable '" + a.target + "' implicitly",
                     "declare it with <variable name=\"" + a.target + "\" init=\"...\"/>");
        }
      }
      if (e.action != ta::ActionKind::kInternal && link.port_for(e.message) == nullptr) {
        report.add(kRuleAutomaton, Severity::kWarning, edge_loc,
                   "automaton handles message '" + e.message +
                       "' but the link declares no port for it",
                   "the edge can never fire; add a port or drop the edge");
      }

      // DL002: guard and assignment typing under the automaton's scope.
      if (e.guard) {
        auto t = e.guard->infer_type(env);
        if (!t.ok()) {
          report.add(kRuleTypes, Severity::kError, edge_loc, t.error().message);
        } else if (t.value() == ta::StaticType::kString) {
          report.add(kRuleTypes, Severity::kError, edge_loc,
                     "guard evaluates to a string, not a boolean");
        }
      }
      for (const auto& a : e.assignments) {
        auto t = a.value->infer_type(env);
        if (!t.ok()) {
          report.add(kRuleTypes, Severity::kError, edge_loc, t.error().message);
        } else if (std::find(automaton.clocks().begin(), automaton.clocks().end(), a.target) !=
                       automaton.clocks().end() &&
                   t.value() == ta::StaticType::kString) {
          report.add(kRuleTypes, Severity::kError, edge_loc,
                     "clock '" + a.target + "' is assigned a string value");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// DL005 -- temporal-accuracy horizon feasibility
// ---------------------------------------------------------------------------

void check_horizons(const GatewayModel& model, Report& report) {
  for (int side = 0; side < 2; ++side) {
    const spec::LinkSpec* link = model.links[side];
    if (link == nullptr) continue;
    for (const auto& port : link->ports()) {
      if (port.direction != spec::DataDirection::kOutput) continue;
      const spec::MessageSpec* ms = link->message(port.message);
      if (ms == nullptr) continue;
      for (const auto* element : ms->convertible_elements()) {
        const std::string repo = model.repo_name(side, element->name);
        const std::string loc = side_loc(model, side) + ": output message '" + port.message +
                                "', element '" + element->name + "'";
        const Producer producer = find_producer(model, repo);
        if (!producer.found()) {
          report.add(kRuleHorizon, Severity::kError, loc,
                     "no input port or transfer rule produces element '" + repo +
                         "'; its horizon is negative forever and the message is statically dead",
                     "add an input port whose message carries the element, a transfer rule "
                     "deriving it, or a <rename> aligning the namespaces");
          continue;
        }
        const ElementMeta meta = model.element_meta(repo, producer.semantics);
        if (meta.semantics != spec::InfoSemantics::kState) continue;  // events: no horizon
        if (meta.d_acc <= Duration::zero()) {
          report.add(kRuleHorizon, Severity::kError, loc,
                     "state element '" + repo + "' has a non-positive temporal-accuracy "
                     "interval " + meta.d_acc.to_string(),
                     "set a positive dacc");
          continue;
        }
        if (meta.d_acc <= model.dispatch_period) {
          report.add(kRuleHorizon, Severity::kError, loc,
                     "statically dead: d_acc " + meta.d_acc.to_string() +
                         " of element '" + repo +
                         "' cannot cover the gateway dispatch period " +
                         model.dispatch_period.to_string() +
                         " (Eq. (2): the horizon at a dispatch point can always be negative)",
                     "raise the element's dacc above the dispatch period or dispatch faster");
          continue;
        }
        // The producer's update spacing bounds how long images stay
        // accurate between refreshes.
        Duration gap = Duration::zero();
        std::string gap_what;
        if (producer.port != nullptr && producer.port->is_time_triggered()) {
          gap = producer.port->period;
          gap_what = "period";
        } else if (producer.port != nullptr &&
                   producer.port->max_interarrival < Duration::max()) {
          gap = producer.port->max_interarrival;
          gap_what = "maximum interarrival";
        }
        if (gap > Duration::zero() && meta.d_acc <= gap) {
          report.add(kRuleHorizon, Severity::kWarning, loc,
                     "d_acc " + meta.d_acc.to_string() + " of element '" + repo +
                         "' is not larger than the producer's " + gap_what + " " +
                         gap.to_string() + "; the image goes stale between updates",
                     "raise dacc above the producer's update spacing");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// DL007 -- dead convertible elements
// ---------------------------------------------------------------------------

// Mirrors VirtualGateway::compile_plans(): a convertible element whose
// repository name is neither required by an output message nor consumed
// as a transfer-rule source is never bound by any compiled transfer
// plan -- dissection discards every arriving instance of it.
void check_dead_elements(const GatewayModel& model, Report& report) {
  const std::set<std::string> needed = output_required_elements(model);
  std::set<std::string> rule_sources;
  for (int side = 0; side < 2; ++side) {
    const spec::LinkSpec* link = model.links[side];
    if (link == nullptr) continue;
    for (const auto& rule : link->transfer_rules())
      rule_sources.insert(model.repo_name(side, rule.source));
  }
  for (int side = 0; side < 2; ++side) {
    const spec::LinkSpec* link = model.links[side];
    if (link == nullptr) continue;
    for (const auto& ms : link->messages()) {
      const spec::PortSpec* port = link->port_for(ms.name());
      if (port != nullptr && port->direction == spec::DataDirection::kOutput)
        continue;  // output elements are consumed by definition
      for (const auto* e : ms.convertible_elements()) {
        const std::string& repo = model.repo_name(side, e->name);
        if (needed.count(repo) != 0 || rule_sources.count(repo) != 0) continue;
        report.add(kRuleDeadElement, Severity::kWarning,
                   side_loc(model, side) + ": message '" + ms.name() + "', element '" +
                       e->name + "'",
                   "convertible element '" + repo + "' is never bound by any transfer plan: "
                   "no output message is constructed from it and no transfer rule consumes "
                   "it, so dissection discards every instance",
                   "drop the convertible flag, add the element to an outgoing message, or "
                   "derive another element from it with a conversion rule");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// DL006 -- port sanity
// ---------------------------------------------------------------------------

void check_ports(const GatewayModel& model, bool standalone, Report& report) {
  for (int side = 0; side < 2; ++side) {
    const spec::LinkSpec* link = model.links[side];
    if (link == nullptr) continue;
    for (const auto& port : link->ports()) {
      const std::string loc = side_loc(model, side) + ": port for message '" + port.message + "'";

      // Interarrival bounds: without tmin (or a TT period), queue sizing
      // and bandwidth accounting can only be probabilistic (Section II-E).
      if (port.direction == spec::DataDirection::kInput && !port.is_time_triggered() &&
          port.min_interarrival <= Duration::zero()) {
        report.add(kRulePorts, Severity::kWarning, loc,
                   "event input port declares no minimum interarrival time; only "
                   "probabilistic statements about queue sizes and bandwidth are possible",
                   "set tmin from the producing job's specification");
      }

      if (standalone) continue;  // the remaining checks need gateway/network context

      // Dispatch alignment: time-triggered outputs are evaluated at
      // dispatch points only, so a period off the dispatch grid drifts.
      if (port.direction == spec::DataDirection::kOutput && port.is_time_triggered() &&
          model.dispatch_period > Duration::zero() && port.period > Duration::zero() &&
          !port.period.mod(model.dispatch_period).is_zero()) {
        report.add(kRulePorts, Severity::kWarning, loc,
                   "TT period " + port.period.to_string() +
                       " is not a multiple of the gateway dispatch period " +
                       model.dispatch_period.to_string() + "; emissions drift by up to one "
                       "dispatch period",
                   "align the period with the dispatch grid");
      }

      // Round divisibility against the physical schedule, when known.
      if (model.schedule != nullptr && model.link_vn[side].has_value() &&
          port.is_time_triggered() &&
          incommensurable(port.period, model.schedule->round_length())) {
        report.add(kRulePorts, Severity::kError, loc,
                   "TT period " + port.period.to_string() +
                       " is incommensurable with the TDMA round " +
                       model.schedule->round_length().to_string() + " of the core network",
                   "make the period divide the round (or be a whole multiple of it)");
      }
    }

    if (standalone) continue;

    // Event-queue sizing (E5): an event element consumed by a TT output
    // with period P and filled at worst every tmin needs ceil(P / tmin)
    // queue slots to survive one consumer period without overflowing.
    for (const auto& port : link->ports()) {
      if (port.direction != spec::DataDirection::kOutput || !port.is_time_triggered()) continue;
      if (port.period <= Duration::zero()) continue;
      const spec::MessageSpec* ms = link->message(port.message);
      if (ms == nullptr) continue;
      for (const auto* element : ms->convertible_elements()) {
        const std::string repo = model.repo_name(side, element->name);
        const Producer producer = find_producer(model, repo);
        if (producer.port == nullptr) continue;
        const ElementMeta meta = model.element_meta(repo, producer.semantics);
        if (meta.semantics != spec::InfoSemantics::kEvent) continue;
        Duration tmin = producer.port->min_interarrival;
        if (tmin <= Duration::zero() && producer.port->is_time_triggered())
          tmin = producer.port->period;
        if (tmin <= Duration::zero()) continue;  // unbounded: warned above
        const auto need = static_cast<std::size_t>(
            (port.period.ns() + tmin.ns() - 1) / tmin.ns());
        if (meta.queue_capacity < need) {
          report.add(kRulePorts, Severity::kError,
                     side_loc(model, side) + ": output message '" + port.message +
                         "', element '" + element->name + "'",
                     "event queue of '" + repo + "' holds " +
                         std::to_string(meta.queue_capacity) + " instances but up to " +
                         std::to_string(need) + " can arrive within one consumer period " +
                         port.period.to_string() + " (tmin " + tmin.to_string() + ")",
                     "size the queue to at least " + std::to_string(need) +
                         " (E5 rule: ceil(consumer period / tmin))");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// DL003 -- TDMA schedule / bandwidth
// ---------------------------------------------------------------------------

void check_bandwidth(const GatewayModel& model, Report& report) {
  if (model.schedule == nullptr) return;
  report.merge(lint_schedule(*model.schedule));
  for (int side = 0; side < 2; ++side) {
    const spec::LinkSpec* link = model.links[side];
    if (link == nullptr || !model.link_vn[side].has_value()) continue;
    const tt::VnId vn = *model.link_vn[side];
    const std::string loc = side_loc(model, side);

    // Worst-case demand of the link in bytes per TDMA round. Unlike
    // VirtualNetworkSpec (which aggregates every job's link and therefore
    // counts each flow once at its producer), the gateway model sees only
    // its own link, so both directions count: input ports are traffic the
    // DAS jobs transmit towards the gateway, output ports are the
    // gateway's own transmissions.
    double demand = 0.0;
    for (const auto& port : link->ports()) {
      demand += link->port_bytes_per_round(port, model.schedule->round_length());
      const bool bounded = (port.is_time_triggered() && port.period > Duration::zero()) ||
                           port.min_interarrival > Duration::zero();
      if (!bounded) {
        report.add(kRuleSchedule, Severity::kWarning,
                   loc + ": port for message '" + port.message + "'",
                   "worst-case rate is unbounded (no period, no tmin); it cannot be "
                   "accounted against the VN's bandwidth partition");
      }
    }

    const std::size_t granted = model.schedule->bytes_per_round(vn);
    if (granted == 0) {
      report.add(kRuleSchedule, Severity::kError, loc,
                 "no slot of the TDMA schedule carries virtual network " + std::to_string(vn),
                 "assign at least one slot to the VN");
    } else if (demand > static_cast<double>(granted)) {
      report.add(kRuleSchedule, Severity::kError, loc,
                 "worst-case demand of " + format_bytes(demand) +
                     " B/round exceeds the " + std::to_string(granted) +
                     " B/round granted to virtual network " + std::to_string(vn),
                 "add slots for the VN or lengthen the port periods");
    }
  }
}

void run_spec_validation(const GatewayModel& model, Report& report) {
  for (int side = 0; side < 2; ++side) {
    if (model.links[side] == nullptr) continue;
    if (auto st = model.links[side]->validate(); !st.ok()) {
      report.add("DL000", Severity::kError, side_loc(model, side), st.error().message);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Model helpers
// ---------------------------------------------------------------------------

const std::string& GatewayModel::repo_name(int side, const std::string& element) const {
  const auto& renames = rename_to_repo[static_cast<std::size_t>(side)];
  const auto it = renames.find(element);
  return it == renames.end() ? element : it->second;
}

ElementMeta GatewayModel::element_meta(const std::string& repo,
                                       spec::InfoSemantics produced) const {
  if (const auto it = element_overrides.find(repo); it != element_overrides.end())
    return it->second;
  return ElementMeta{produced, default_d_acc, default_queue_capacity};
}

// ---------------------------------------------------------------------------
// DL011 -- event-port queue sizing vs live-runtime ring capacity
// ---------------------------------------------------------------------------

void check_ring_capacity(const GatewayModel& model, Report& report) {
  if (model.transport_ring_bytes == 0) return;
  // Judge the ring the runtime actually builds for the requested size,
  // with the runtime's own per-frame payload limit.
  const std::size_t capacity = rt::round_capacity(model.transport_ring_bytes);
  const std::size_t max_payload = rt::max_payload(capacity);
  for (int side = 0; side < 2; ++side) {
    const spec::LinkSpec* link = model.links[side];
    if (link == nullptr) continue;
    for (const auto& port : link->ports()) {
      if (port.direction != spec::DataDirection::kInput) continue;
      const spec::MessageSpec* ms = link->message(port.message);
      if (ms == nullptr) continue;
      const std::size_t payload = ms->wire_size();
      const std::string loc =
          side_loc(model, side) + ": port for message '" + port.message + "'";
      if (payload > max_payload) {
        report.add(kRuleRingCapacity, Severity::kNote, loc,
                   "a frame of '" + port.message + "' carries " + std::to_string(payload) +
                       " payload bytes but the runtime ingress ring accepts at most " +
                       std::to_string(max_payload) + " per frame (capacity " +
                       std::to_string(capacity) +
                       " / 4); the live runtime can never carry this message",
                   "raise the ring capacity to at least " +
                       std::to_string(rt::round_capacity(payload * 4)) + " bytes");
        continue;
      }
      const std::size_t frame = rt::framed_size(payload);
      for (const auto* element : ms->convertible_elements()) {
        const std::string repo = model.repo_name(side, element->name);
        const ElementMeta meta = model.element_meta(repo, port.semantics);
        if (meta.semantics != spec::InfoSemantics::kEvent) continue;
        const std::size_t frames_in_ring = capacity / frame;
        if (frames_in_ring < meta.queue_capacity) {
          report.add(kRuleRingCapacity, Severity::kNote,
                     loc + ", element '" + repo + "'",
                     "event queue provisions " + std::to_string(meta.queue_capacity) +
                         " instances (DL006/DL010 demand) but the runtime ingress ring (" +
                         std::to_string(capacity) +
                         " bytes) buffers at most " + std::to_string(frames_in_ring) +
                         " frames of '" + port.message + "' (" + std::to_string(frame) +
                         " bytes framed); a burst drops at the transport before admission "
                         "ever sees it",
                     "raise the ring capacity to at least " +
                         std::to_string(rt::round_capacity(frame * meta.queue_capacity)) +
                         " bytes or shrink the queue");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

Report lint_gateway_local(const GatewayModel& model) {
  Report report;
  if (model.links[0] == nullptr || model.links[1] == nullptr) {
    report.add("DL000", Severity::kError, "gateway '" + model.name + "'",
               "a gateway deployment needs two link specifications");
    return report;
  }
  run_spec_validation(model, report);
  check_transfer_rules(model, /*standalone=*/false, report);
  for (int side = 0; side < 2; ++side) {
    check_filter_types(model, side, report);
    check_transfer_types(model, side, /*standalone=*/false, report);
    check_automata(model, side, report);
  }
  check_construction_types(model, report);
  check_horizons(model, report);
  check_ports(model, /*standalone=*/false, report);
  check_bandwidth(model, report);
  check_dead_elements(model, report);
  check_ring_capacity(model, report);
  return report;
}

Report lint_gateway(const GatewayModel& model) {
  Report report = lint_gateway_local(model);
  if (model.links[0] == nullptr || model.links[1] == nullptr) return report;
  ClusterModel cluster;
  cluster.gateways.push_back(&model);
  report.merge(lint_cluster(cluster));
  return report;
}

Report lint_cluster(const ClusterModel& cluster, std::vector<FlowBound>* bounds) {
  Report report;
  const FlowGraph graph = build_flow_graph(cluster);
  check_flow_latency(graph, report, bounds);
  check_symbolic(cluster, graph, report);
  check_flow_occupancy(graph, report);
  return report;
}

Report lint_link(const spec::LinkSpec& link) {
  GatewayModel model;
  model.name = link.das().empty() ? std::string{"link"} : link.das();
  model.links = {&link, nullptr};

  Report report;
  run_spec_validation(model, report);
  check_transfer_rules(model, /*standalone=*/true, report);
  check_filter_types(model, 0, report);
  check_transfer_types(model, 0, /*standalone=*/true, report);
  check_automata(model, 0, report);
  check_ports(model, /*standalone=*/true, report);
  return report;
}

Report lint_schedule(const tt::TdmaSchedule& schedule) {
  Report report;
  const std::string loc = "tdma schedule";
  if (schedule.round_length() <= Duration::zero()) {
    report.add(kRuleSchedule, Severity::kError, loc, "round length must be positive");
    return report;
  }
  const auto& slots = schedule.slots();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const auto& s = slots[i];
    const std::string slot_loc = loc + ", slot " + std::to_string(i);
    if (s.owner == tt::kNoNode)
      report.add(kRuleSchedule, Severity::kError, slot_loc, "slot has no owning node",
                 "every slot belongs to exactly one sender");
    if (s.duration <= Duration::zero())
      report.add(kRuleSchedule, Severity::kError, slot_loc, "non-positive slot duration");
    if (s.offset.is_negative() || s.offset + s.duration > schedule.round_length())
      report.add(kRuleSchedule, Severity::kError, slot_loc,
                 "slot [" + s.offset.to_string() + ", +" + s.duration.to_string() +
                     "] exceeds the round of " + schedule.round_length().to_string());
    if (s.payload_bytes == 0)
      report.add(kRuleSchedule, Severity::kError, slot_loc, "slot has zero payload capacity");
  }
  std::vector<std::size_t> order(slots.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return slots[a].offset < slots[b].offset; });
  for (std::size_t i = 1; i < order.size(); ++i) {
    const auto& prev = slots[order[i - 1]];
    const auto& cur = slots[order[i]];
    if (prev.offset + prev.duration > cur.offset) {
      report.add(kRuleSchedule, Severity::kError, loc,
                 "slots " + std::to_string(order[i - 1]) + " and " + std::to_string(order[i]) +
                     " overlap",
                 "slots must partition the round");
    }
  }
  return report;
}

Report lint_virtual_network(const spec::VirtualNetworkSpec& vn, const tt::TdmaSchedule* schedule,
                            tt::VnId vn_id) {
  Report report;
  const std::string loc = "virtual network '" + vn.name() + "'";
  if (auto st = vn.validate(); !st.ok())
    report.add("DL000", Severity::kError, loc, st.error().message);

  const Duration round =
      schedule != nullptr ? schedule->round_length() : vn.round_length();
  for (const auto& link : vn.links()) {
    for (const auto& port : link.ports()) {
      if (port.is_time_triggered() && incommensurable(port.period, round)) {
        report.add(kRulePorts, Severity::kError,
                   loc + ": port for message '" + port.message + "'",
                   "TT period " + port.period.to_string() +
                       " is incommensurable with the round " + round.to_string(),
                   "make the period divide the round (or be a whole multiple of it)");
      }
    }
  }

  for (const auto& message : vn.unbounded_output_ports()) {
    report.add(kRuleSchedule, Severity::kWarning, loc + ": port for message '" + message + "'",
               "worst-case rate is unbounded (no period, no tmin); only probabilistic "
               "bandwidth statements are possible");
  }

  if (schedule != nullptr) {
    report.merge(lint_schedule(*schedule));
    const std::size_t granted = schedule->bytes_per_round(vn_id);
    if (vn.bytes_per_round() > granted) {
      report.add(kRuleSchedule, Severity::kError, loc,
                 "allocation of " + std::to_string(vn.bytes_per_round()) +
                     " B/round exceeds the " + std::to_string(granted) +
                     " B/round the schedule grants to virtual network " + std::to_string(vn_id),
                 "grow the VN's slot share or shrink the allocation");
    }
    const double demand = vn.worst_case_bytes_per_round();
    if (granted > 0 && demand > static_cast<double>(granted)) {
      report.add(kRuleSchedule, Severity::kError, loc,
                 "worst-case demand of " + format_bytes(demand) +
                     " B/round exceeds the " + std::to_string(granted) +
                     " B/round granted to virtual network " + std::to_string(vn_id));
    }
  }
  return report;
}

}  // namespace decos::lint
