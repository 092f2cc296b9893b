// Compiled transfer plans: the design-time product of
// VirtualGateway::finalize() that de-strings the forwarding hot path.
//
// The paper fixes every name -- messages, convertible elements, fields,
// renaming-table entries -- in the link specifications at design time.
// Historically the gateway still *resolved* those names at runtime: each
// dissect hashed element names into the repository map, each construct
// re-ran rename lookups and field-name scans. A compiled plan performs
// all of that resolution once, in finalize():
//
//   DissectPlan    per (link, input message): for each convertible
//                  element, the interned element Symbol, the dense
//                  repository slot (ElementId) behind the renaming
//                  table, per-field Symbols, and a persistent scratch
//                  ElementInstance whose keys are prebuilt -- steady
//                  state only copies field *values* and issues
//                  Repository::store_copy on the resolved slot.
//
//   ConstructPlan  per (link, output message): the governing
//                  interpreter, output port, required ElementIds (for
//                  the m! availability guard, b_req requests and the
//                  horizon), per-element bindings from repository slot
//                  to output field index, and a persistent scratch
//                  MessageInstance (static fields prefilled) that is
//                  emitted by copy-assignment into the port.
//
// Renaming, semantics and slot resolution therefore cannot fail at
// runtime; a link-spec name that does not resolve while compiling plans
// is a finalize()-time SpecError. Field-level bindings stay dynamic by
// Symbol (a message may legitimately ask for a field the producing side
// never supplies -- that remains a counted construction failure), but
// the steady-state cost is a u32 scan, never a string compare.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/repository.hpp"
#include "spec/link_spec.hpp"
#include "spec/message.hpp"
#include "ta/interpreter.hpp"
#include "util/symbol.hpp"
#include "vn/port.hpp"

namespace decos::core {

/// One transfer-semantics rule bound to resolved slots. The rule's
/// *target* always resolves to a repository slot (finalize declares it);
/// the *source* need not be a declared slot -- rules may fire from
/// elements that exist only on the wire -- so rule plans are bound by
/// pointer into the dissect items of every message carrying the source.
struct RulePlan {
  const spec::TransferRule* rule = nullptr;
  const spec::LinkSpec* owner = nullptr;  // namespace for parameters
  ElementId target_id = kInvalidElementId;
  std::vector<Symbol> field_syms;  // parallel to rule->fields
  /// Persistent scratch for the derived element (reused per firing).
  ElementInstance scratch;
};

/// One convertible element of an incoming message: where its values go.
struct DissectItem {
  const spec::ElementSpec* element = nullptr;  // source element spec
  Symbol element_sym;                          // interned element name (link namespace)
  Symbol repo_sym;                             // interned repository (canonical) name
  ElementId repo_id = kInvalidElementId;       // resolved repository slot
  bool needed = false;                         // selective redirection: store at all?
  std::vector<RulePlan*> rules;                // transfer rules fired by this element
  /// Persistent scratch: keys interned at compile time, values
  /// overwritten per arrival, handed to Repository::store_copy.
  ElementInstance scratch;
};

/// Compiled dissect path of one input message on one link.
struct DissectPlan {
  const spec::MessageSpec* message = nullptr;
  Symbol message_sym;
  /// Value-domain filter predicate, resolved once (nullptr: no filter).
  const ta::ExprPtr* filter = nullptr;
  std::vector<DissectItem> items;
};

/// Field binding of one output element: repository field Symbol ->
/// dense index into the output element's field vector.
struct ConstructFieldBind {
  std::uint32_t field_index = 0;  // into ElementValue::fields of the output element
  Symbol field_sym;               // repository-side field name
};

/// One convertible element of an outgoing message: where its values come
/// from.
struct ConstructItem {
  const spec::ElementSpec* element = nullptr;
  Symbol element_sym;
  Symbol repo_sym;
  ElementId repo_id = kInvalidElementId;
  bool is_event = false;                        // repository semantics of the slot
  std::uint32_t instance_element_index = 0;     // into the scratch instance's elements
  std::vector<ConstructFieldBind> fields;       // dynamic fields only
};

/// Compiled construct path of one output message on one link.
struct ConstructPlan {
  const spec::PortSpec* port_spec = nullptr;
  const spec::MessageSpec* message = nullptr;
  Symbol message_sym;
  ta::Interpreter* interpreter = nullptr;  // governing send automaton
  vn::Port* port = nullptr;                // default emission target
  bool time_triggered = false;
  bool consumes_events = false;  // any required element has event semantics
  std::vector<ConstructItem> items;
  /// All required repository slots (m! guard, b_req, horizon).
  std::vector<ElementId> required;
  /// Freshness gate for event-triggered outputs of state-only messages:
  /// repository version sum at the last emission (0 = never emitted).
  std::uint64_t last_emitted_version_sum = 0;
  /// Position in the owning link's construct plans (its active-set bit).
  std::uint32_t index = 0;
  /// Output wake-up (S29): an event-triggered plan whose send automaton
  /// is guard-free -- one location, no error location, one unguarded m!
  /// self-loop of this message (make_unconstrained_send) -- may park
  /// after an evaluation held without emitting.
  bool parks_when_held = false;
  /// Why the plan is out of its link's active set: kIdle = skipped by
  /// the freshness gate, kHeld = held with every required state element
  /// unavailable. A parked plan is re-evaluated once a required element
  /// is touched (Repository::touched()).
  enum class Park : std::uint8_t { kActive, kIdle, kHeld };
  Park park = Park::kActive;
  /// Resolved emission override (S29): points at this message's slot in
  /// the link's emitter table, pre-created at compile time so the hot
  /// path tests one function object instead of hashing into the map.
  /// An empty function means "no override": deposit into `port`.
  const std::function<void(const spec::MessageInstance&)>* emitter = nullptr;
  /// Persistent output scratch (static fields prefilled by
  /// make_instance); dynamic fields are overwritten per emission and the
  /// instance is deposited by copy.
  spec::MessageInstance scratch;
  /// Swap buffer for consuming event elements without allocation.
  ElementInstance event_scratch;
};

}  // namespace decos::core
