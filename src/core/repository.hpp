// The gateway repository: a real-time database of convertible elements
// (paper Section IV-A, Fig. 5).
//
// Convertible elements with state semantics are stored in state variables
// (update in place) together with two meta attributes: the static
// temporal accuracy interval d_acc and the dynamic instant of the most
// recent update t_update. A stored real-time image is *temporally
// accurate* at t_now iff t_now < t_update + d_acc.
//
//   NOTE on Eq. (1): the paper's transcription prints the accuracy
//   condition as t_update + d_acc < t_now, which would make an image
//   accurate only after its interval elapsed -- contradicting both the
//   surrounding prose and Eq. (2) (horizon = min(t_update + d_acc -
//   t_now), positive while accurate). We implement the evidently intended
//   direction; see DESIGN.md "Faithfulness notes".
//
// Convertible elements with event semantics are stored in bounded ring
// buffers and consumed exactly once, regardless of temporal accuracy, to
// keep sender/receiver state synchronization intact.
//
// Every element additionally carries the boolean request variable b_req
// by which one gateway side can request instances from the other
// (event-triggered interaction, Section IV-A).
//
// Storage layout: entries live in a flat vector indexed by a dense
// ElementId handed out at declaration time; a Symbol-keyed side index
// resolves names to ids. The gateway's compiled transfer plans hold
// ElementIds, so the steady-state store/fetch path is a bounds-checked
// array access -- no hashing, no string compares. The name-keyed methods
// remain as resolve-then-forward wrappers for tests and cold paths.
//
// Wake signal: the repository keeps a deduplicated list of *touched*
// elements -- every id whose availability may have changed (a store
// raises it, a consumption lowers it) or whose request variable was
// cleared since the owner last drained the list. The gateway's
// event-triggered output pass wakes only the construct plans that read a
// touched element (DESIGN.md S29 "Output wake-up").
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "spec/port_spec.hpp"
#include "ta/value.hpp"
#include "util/symbol.hpp"
#include "util/time.hpp"

namespace decos::core {

/// Dense handle of a declared convertible element within one Repository.
using ElementId = std::uint32_t;
inline constexpr ElementId kInvalidElementId = std::numeric_limits<ElementId>::max();

/// One stored instance of a convertible element: field values keyed by
/// interned Symbol (name-addressed so the two links may order or subset
/// fields differently -- syntactic property transformation -- but the
/// per-lookup cost is a u32 scan, not a string compare).
struct ElementInstance {
  std::vector<std::pair<Symbol, ta::Value>> fields;
  Instant observed_at;
  // Causal trace identity inherited from the dissected message instance
  // (0 = untraced); span_id is the dissect span, so the repository-wait
  // span of a later construction can parent under it.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  const ta::Value* field(Symbol key) const {
    for (const auto& [k, v] : fields)
      if (k == key) return &v;
    return nullptr;
  }
  ta::Value* field(Symbol key) {
    for (auto& [k, v] : fields)
      if (k == key) return &v;
    return nullptr;
  }
  /// Name-keyed read. Resolves through the global symbol table without
  /// inserting, so probing with arbitrary strings cannot grow it.
  const ta::Value* field(const std::string& name) const {
    const auto sym = SymbolTable::global().lookup(name);
    return sym ? field(*sym) : nullptr;
  }

  /// Insert-or-assign. The duplicate-key check compares interned ids
  /// (one integer each), not strings; assignment reuses the existing
  /// value's storage.
  void set_field(Symbol key, ta::Value value) {
    for (auto& [k, v] : fields) {
      if (k == key) {
        v = std::move(value);
        return;
      }
    }
    fields.emplace_back(key, std::move(value));
  }
  void set_field(const std::string& name, ta::Value value) {
    set_field(intern_symbol(name), std::move(value));
  }
};

/// Declaration of one convertible element in the repository.
struct ElementDecl {
  std::string name;  // repository (canonical) name
  spec::InfoSemantics semantics = spec::InfoSemantics::kState;
  Duration d_acc = Duration::milliseconds(50);  // state elements only
  std::size_t queue_capacity = 16;              // event elements only
};

class Repository {
 public:
  /// Declare an element and return its dense id. Re-declaration with
  /// identical semantics returns the existing id; conflicting semantics
  /// is a configuration error.
  ElementId declare(const ElementDecl& decl);

  /// Resolve a name to its id (nullopt if undeclared). Non-inserting.
  std::optional<ElementId> id_of(Symbol name) const;
  std::optional<ElementId> id_of(const std::string& name) const;

  bool is_declared(const std::string& name) const { return id_of(name).has_value(); }
  const ElementDecl& decl_of(ElementId id) const { return entry(id).decl; }
  const ElementDecl& decl_of(const std::string& name) const { return entry(resolve(name)).decl; }

  // -- store ------------------------------------------------------------
  /// Store an instance. State: overwrite in place, t_update := now.
  /// Event: enqueue; a full queue drops the *new* instance and counts an
  /// overflow. Storing clears the element's request variable.
  /// Returns false on overflow.
  bool store(ElementId id, ElementInstance&& instance, Instant now);
  /// Copy-assigning store for the compiled-plan hot path: the target
  /// slot's field storage is reused (vector and string capacities), so a
  /// warmed repository absorbs stores without heap allocation.
  bool store_copy(ElementId id, const ElementInstance& instance, Instant now);
  bool store(const std::string& name, ElementInstance instance, Instant now) {
    return store(resolve(name), std::move(instance), now);
  }

  // -- fetch ------------------------------------------------------------
  /// Availability for message construction (the m! guard): state
  /// elements must hold a temporally accurate image; event elements a
  /// non-empty queue.
  bool available(ElementId id, Instant now) const;
  bool available(const std::string& name, Instant now) const {
    return available(resolve(name), now);
  }

  /// Fetch for construction (copying compat form). State: non-consuming
  /// copy if accurate (or regardless of accuracy when `ignore_accuracy`).
  /// Event: pop the oldest instance (exactly-once).
  std::optional<ElementInstance> fetch(ElementId id, Instant now, bool ignore_accuracy = false);
  std::optional<ElementInstance> fetch(const std::string& name, Instant now,
                                       bool ignore_accuracy = false) {
    return fetch(resolve(name), now, ignore_accuracy);
  }

  /// Plan hot path, state elements: borrow the stored image without
  /// copying. nullptr when absent or (unless `ignore_accuracy`) stale;
  /// a stale refusal is counted exactly like a refused fetch().
  const ElementInstance* fetch_state(ElementId id, Instant now, bool ignore_accuracy = false);

  /// Plan hot path, event elements: consume the oldest instance by
  /// swapping it into `out` -- `out`'s previous storage is left in the
  /// ring slot and recycled by the next store_copy(), so the steady
  /// state allocates nothing. Returns false on an empty queue.
  bool consume_into(ElementId id, ElementInstance& out);

  /// Non-consuming read of the current state value / queue head.
  const ElementInstance* peek(ElementId id) const;
  const ElementInstance* peek(const std::string& name) const { return peek(resolve(name)); }

  /// Eq. (1), corrected direction: t_now < t_update + d_acc.
  bool temporally_accurate(ElementId id, Instant now) const;
  bool temporally_accurate(const std::string& name, Instant now) const {
    return temporally_accurate(resolve(name), now);
  }

  /// Eq. (2): remaining accuracy interval over a set of elements,
  ///   horizon = min over elements of (t_update + d_acc - t_now).
  /// Event elements do not constrain the horizon. Elements with state
  /// semantics but no stored image yield a negative horizon.
  Duration horizon(std::span<const ElementId> ids, Instant now) const;
  Duration horizon(std::span<const std::string> elements, Instant now) const;

  // -- request variables ------------------------------------------------
  /// Setting a request does not touch the element (a held output stays
  /// parked); clearing one does.
  void set_request(ElementId id, bool requested = true) {
    Entry& e = entry(id);
    e.b_req = requested;
    if (!requested) touch(e, id);
  }
  void set_request(const std::string& name, bool requested = true) {
    set_request(resolve(name), requested);
  }
  bool requested(ElementId id) const { return entry(id).b_req; }
  bool requested(const std::string& name) const { return requested(resolve(name)); }

  /// Monotone store counter per element (0 = never stored). Lets the
  /// gateway detect fresh information for event-triggered emission.
  std::uint64_t version(ElementId id) const { return entry(id).version; }
  std::uint64_t version(const std::string& name) const { return version(resolve(name)); }

  std::size_t queue_depth(ElementId id) const { return entry(id).ring_count; }
  std::size_t queue_depth(const std::string& name) const { return queue_depth(resolve(name)); }

  // -- wake signal ------------------------------------------------------
  /// Elements touched since the last clear_touched(), each listed once,
  /// in first-touch order. Touching operations: store, store_copy,
  /// consume_into, an event fetch, set_request(false). Capacity is
  /// reserved at declare(), so touching never allocates.
  std::span<const ElementId> touched() const { return touched_; }
  void clear_touched() {
    for (const ElementId id : touched_) entries_[id].touched = false;
    touched_.clear();
  }

  // -- counters ---------------------------------------------------------
  std::uint64_t stores() const { return stores_; }
  std::uint64_t overflows() const { return overflows_; }
  std::uint64_t stale_fetches_refused() const { return stale_refused_; }
  std::size_t element_count() const { return entries_.size(); }
  std::vector<std::string> element_names() const;

 private:
  struct Entry {
    ElementDecl decl;
    Symbol name_sym;
    std::optional<ElementInstance> state_value;
    Instant t_update = Instant::origin() - Duration::seconds(1000);  // "never"
    // Event semantics: fixed ring of queue_capacity slots. Slots keep
    // their field storage across consume/store cycles.
    std::vector<ElementInstance> ring;
    std::size_t ring_head = 0;
    std::size_t ring_count = 0;
    bool b_req = false;
    bool touched = false;  // listed in touched_
    std::uint64_t version = 0;
  };

  void touch(Entry& e, ElementId id) {
    if (e.touched) return;
    e.touched = true;
    touched_.push_back(id);
  }

  /// Name -> id or SpecError (undeclared elements are configuration
  /// faults, matching the historical name-keyed behaviour).
  ElementId resolve(const std::string& name) const;

  Entry& entry(ElementId id);
  const Entry& entry(ElementId id) const;

  std::vector<Entry> entries_;  // indexed by ElementId
  std::unordered_map<Symbol, ElementId, SymbolHash> index_;
  std::vector<ElementId> touched_;  // capacity >= entries_.size()
  std::uint64_t stores_ = 0;
  std::uint64_t overflows_ = 0;
  mutable std::uint64_t stale_refused_ = 0;
};

}  // namespace decos::core
