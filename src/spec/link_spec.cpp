#include "spec/link_spec.hpp"

#include <unordered_set>

#include "spec/message.hpp"

namespace decos::spec {

const MessageSpec* LinkSpec::message(const std::string& name) const {
  for (const auto& m : messages_)
    if (m.name() == name) return &m;
  return nullptr;
}

double LinkSpec::port_bytes_per_round(const PortSpec& port, Duration round) const {
  const MessageSpec* ms = message(port.message);
  if (ms == nullptr || round <= Duration::zero()) return 0.0;
  const double bytes = static_cast<double>(ms->wire_size()) * static_cast<double>(round.ns());
  if (port.is_time_triggered() && port.period > Duration::zero())
    return bytes / static_cast<double>(port.period.ns());
  if (port.min_interarrival > Duration::zero())
    return bytes / static_cast<double>(port.min_interarrival.ns());
  return 0.0;
}

const MessageSpec* LinkSpec::identify(std::span<const std::byte> payload) const {
  for (const auto& m : messages_)
    if (matches_key(m, payload)) return &m;
  return nullptr;
}

const PortSpec* LinkSpec::port_for(const std::string& message_name) const {
  for (const auto& p : ports_)
    if (p.message == message_name) return &p;
  return nullptr;
}

const ta::Value& LinkSpec::parameter(const std::string& name) const {
  const auto it = parameters_.find(name);
  if (it == parameters_.end())
    throw SpecError("link spec for DAS '" + das_ + "' has no parameter '" + name + "'");
  return it->second;
}

std::vector<std::string> LinkSpec::convertible_element_names() const {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  for (const auto& m : messages_) {
    for (const auto* e : m.convertible_elements()) {
      if (seen.insert(e->name).second) out.push_back(e->name);
    }
  }
  for (const auto& rule : transfer_) {
    if (seen.insert(rule.target).second) out.push_back(rule.target);
  }
  return out;
}

Status LinkSpec::validate() const {
  std::unordered_set<std::string> message_names;
  for (const auto& m : messages_) {
    if (auto st = m.validate(); !st.ok()) return st;
    if (!message_names.insert(m.name()).second)
      return Status::failure("link for DAS '" + das_ + "': duplicate message '" + m.name() + "'");
  }
  for (const auto& a : automata_) {
    if (auto st = a.validate(); !st.ok()) return st;
    for (const auto& e : a.edges()) {
      if (e.action != ta::ActionKind::kInternal && message(e.message) == nullptr)
        return Status::failure("link for DAS '" + das_ + "': automaton '" + a.name() +
                               "' references unknown message '" + e.message + "'");
    }
  }
  // Collect convertible element names for transfer-rule source checks.
  std::unordered_set<std::string> convertible;
  for (const auto& m : messages_)
    for (const auto* e : m.convertible_elements()) convertible.insert(e->name);
  for (const auto& rule : transfer_) {
    if (auto st = rule.validate(); !st.ok()) return st;
    // A rule's source must exist as a convertible element *somewhere*; at
    // the gateway level the source usually comes from the other link, so
    // this check is deferred to VirtualGateway. Here we only reject rules
    // whose target collides with a concrete element of this link.
  }
  for (const auto& p : ports_) {
    if (auto st = p.validate(); !st.ok()) return st;
    if (message(p.message) == nullptr)
      return Status::failure("link for DAS '" + das_ + "': port references unknown message '" +
                             p.message + "'");
  }
  for (const auto& [message_name, predicate] : filters_) {
    if (message(message_name) == nullptr)
      return Status::failure("link for DAS '" + das_ + "': filter references unknown message '" +
                             message_name + "'");
    if (!predicate)
      return Status::failure("link for DAS '" + das_ + "': empty filter for message '" +
                             message_name + "'");
  }
  return Status::success();
}

}  // namespace decos::spec
