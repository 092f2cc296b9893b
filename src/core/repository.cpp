#include "core/repository.hpp"

#include <utility>

#include "util/result.hpp"

namespace decos::core {

ElementId Repository::declare(const ElementDecl& decl) {
  const Symbol sym = intern_symbol(decl.name);
  if (const auto it = index_.find(sym); it != index_.end()) {
    if (entries_[it->second].decl.semantics != decl.semantics)
      throw SpecError("convertible element '" + decl.name +
                      "' declared with conflicting semantics");
    return it->second;
  }
  Entry e;
  e.decl = decl;
  e.name_sym = sym;
  if (decl.semantics == spec::InfoSemantics::kEvent) {
    e.ring.resize(decl.queue_capacity == 0 ? 1 : decl.queue_capacity);
  }
  const auto id = static_cast<ElementId>(entries_.size());
  entries_.push_back(std::move(e));
  index_.emplace(sym, id);
  // Keep room for every element (deduplicated touches never exceed
  // the element count); growing with entries_ keeps declare amortized.
  if (touched_.capacity() < entries_.size()) touched_.reserve(entries_.capacity());
  return id;
}

std::optional<ElementId> Repository::id_of(Symbol name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::optional<ElementId> Repository::id_of(const std::string& name) const {
  const auto sym = SymbolTable::global().lookup(name);
  if (!sym) return std::nullopt;
  return id_of(*sym);
}

ElementId Repository::resolve(const std::string& name) const {
  if (const auto id = id_of(name)) return *id;
  throw SpecError("convertible element '" + name + "' is not declared in the repository");
}

Repository::Entry& Repository::entry(ElementId id) {
  if (id >= entries_.size())
    throw SpecError("element id " + std::to_string(id) + " is not declared in the repository");
  return entries_[id];
}

const Repository::Entry& Repository::entry(ElementId id) const {
  if (id >= entries_.size())
    throw SpecError("element id " + std::to_string(id) + " is not declared in the repository");
  return entries_[id];
}

bool Repository::store(ElementId id, ElementInstance&& instance, Instant now) {
  Entry& e = entry(id);
  e.b_req = false;  // the request has been satisfied
  touch(e, id);
  ++e.version;
  ++stores_;
  instance.observed_at = now;
  if (e.decl.semantics == spec::InfoSemantics::kState) {
    e.state_value = std::move(instance);
    e.t_update = now;
    return true;
  }
  if (e.ring_count >= e.ring.size()) {
    ++overflows_;
    return false;
  }
  e.ring[(e.ring_head + e.ring_count) % e.ring.size()] = std::move(instance);
  ++e.ring_count;
  return true;
}

bool Repository::store_copy(ElementId id, const ElementInstance& instance, Instant now) {
  Entry& e = entry(id);
  e.b_req = false;
  touch(e, id);
  ++e.version;
  ++stores_;
  if (e.decl.semantics == spec::InfoSemantics::kState) {
    if (e.state_value) {
      // Copy-assign into the engaged optional: field vector and string
      // capacities of the previous image are reused.
      *e.state_value = instance;
    } else {
      e.state_value = instance;
    }
    e.state_value->observed_at = now;
    e.t_update = now;
    return true;
  }
  if (e.ring_count >= e.ring.size()) {
    ++overflows_;
    return false;
  }
  ElementInstance& slot = e.ring[(e.ring_head + e.ring_count) % e.ring.size()];
  slot = instance;  // slot storage (left by consume_into) is reused
  slot.observed_at = now;
  ++e.ring_count;
  return true;
}

bool Repository::temporally_accurate(ElementId id, Instant now) const {
  const Entry& e = entry(id);
  if (e.decl.semantics != spec::InfoSemantics::kState) return true;
  if (!e.state_value) return false;
  return now < e.t_update + e.decl.d_acc;
}

bool Repository::available(ElementId id, Instant now) const {
  const Entry& e = entry(id);
  if (e.decl.semantics == spec::InfoSemantics::kState)
    return e.state_value.has_value() && temporally_accurate(id, now);
  return e.ring_count != 0;
}

std::optional<ElementInstance> Repository::fetch(ElementId id, Instant now,
                                                 bool ignore_accuracy) {
  Entry& e = entry(id);
  if (e.decl.semantics == spec::InfoSemantics::kState) {
    if (!e.state_value) return std::nullopt;
    if (!ignore_accuracy && !temporally_accurate(id, now)) {
      ++stale_refused_;
      return std::nullopt;
    }
    return e.state_value;  // non-consuming copy
  }
  if (e.ring_count == 0) return std::nullopt;
  touch(e, id);
  ElementInstance instance = std::move(e.ring[e.ring_head]);
  e.ring_head = (e.ring_head + 1) % e.ring.size();
  --e.ring_count;
  return instance;
}

const ElementInstance* Repository::fetch_state(ElementId id, Instant now, bool ignore_accuracy) {
  Entry& e = entry(id);
  if (!e.state_value) return nullptr;
  if (!ignore_accuracy && !temporally_accurate(id, now)) {
    ++stale_refused_;
    return nullptr;
  }
  return &*e.state_value;
}

bool Repository::consume_into(ElementId id, ElementInstance& out) {
  Entry& e = entry(id);
  if (e.ring_count == 0) return false;
  touch(e, id);
  // Swap instead of move: `out`'s previous field storage ends up in the
  // ring slot, ready for the next store_copy to fill without allocating.
  std::swap(out, e.ring[e.ring_head]);
  e.ring_head = (e.ring_head + 1) % e.ring.size();
  --e.ring_count;
  return true;
}

const ElementInstance* Repository::peek(ElementId id) const {
  const Entry& e = entry(id);
  if (e.decl.semantics == spec::InfoSemantics::kState)
    return e.state_value ? &*e.state_value : nullptr;
  return e.ring_count == 0 ? nullptr : &e.ring[e.ring_head];
}

Duration Repository::horizon(std::span<const ElementId> ids, Instant now) const {
  Duration h = Duration::max();
  for (const ElementId id : ids) {
    const Entry& e = entry(id);
    if (e.decl.semantics != spec::InfoSemantics::kState) continue;
    const Duration remaining = (e.t_update + e.decl.d_acc) - now;
    if (remaining < h) h = remaining;
  }
  return h;
}

Duration Repository::horizon(std::span<const std::string> elements, Instant now) const {
  Duration h = Duration::max();
  for (const auto& name : elements) {
    const Entry& e = entry(resolve(name));
    if (e.decl.semantics != spec::InfoSemantics::kState) continue;
    const Duration remaining = (e.t_update + e.decl.d_acc) - now;
    if (remaining < h) h = remaining;
  }
  return h;
}

std::vector<std::string> Repository::element_names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.decl.name);
  return out;
}

}  // namespace decos::core
