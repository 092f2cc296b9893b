#include "spec/vn_spec.hpp"

#include <unordered_set>

namespace decos::spec {

const MessageSpec* VirtualNetworkSpec::message(const std::string& message_name) const {
  for (const auto& link : links_) {
    if (const MessageSpec* ms = link.message(message_name); ms != nullptr) return ms;
  }
  return nullptr;
}

double VirtualNetworkSpec::worst_case_bytes_per_round() const {
  double total = 0.0;
  for (const auto& link : links_)
    for (const auto& port : link.ports())
      if (port.direction == DataDirection::kOutput)
        total += link.port_bytes_per_round(port, round_length_);
  return total;
}

std::vector<std::string> VirtualNetworkSpec::unbounded_output_ports() const {
  std::vector<std::string> out;
  for (const auto& link : links_) {
    for (const auto& port : link.ports()) {
      if (port.direction != DataDirection::kOutput) continue;
      const bool bounded = (port.is_time_triggered() && port.period > Duration::zero()) ||
                           port.min_interarrival > Duration::zero();
      if (!bounded) out.push_back(port.message);
    }
  }
  return out;
}

Status VirtualNetworkSpec::validate() const {
  if (links_.empty())
    return Status::failure("virtual network '" + name_ + "' has no link specifications");
  std::unordered_set<std::string> producers;  // message -> unique producer check
  std::unordered_set<std::string> namespace_check;
  for (const auto& link : links_) {
    if (auto st = link.validate(); !st.ok()) return st;
    for (const auto& port : link.ports()) {
      // Paradigm coherence: every port must match the VN's control paradigm.
      if (port.paradigm != paradigm_)
        return Status::failure("virtual network '" + name_ + "': port for '" + port.message +
                               "' uses the wrong control paradigm");
      if (port.direction == DataDirection::kOutput && !producers.insert(port.message).second)
        return Status::failure("virtual network '" + name_ + "': message '" + port.message +
                               "' has more than one producer");
    }
    // Namespace coherence: a message name is defined once per VN; the
    // *same* spec may appear in several links (producer + consumers), so
    // only flag structural disagreement.
    for (const auto& ms : link.messages()) {
      if (namespace_check.count(ms.name()) != 0) {
        const MessageSpec* first = message(ms.name());
        if (first->wire_size() != ms.wire_size())
          return Status::failure("virtual network '" + name_ + "': message '" + ms.name() +
                                 "' declared with conflicting layouts");
      }
      namespace_check.insert(ms.name());
    }
  }
  if (bytes_per_round_ > 0) {
    const double demand = worst_case_bytes_per_round();
    if (demand > static_cast<double>(bytes_per_round_))
      return Status::failure("virtual network '" + name_ + "': worst-case demand " +
                             std::to_string(demand) + " B/round exceeds the allocation of " +
                             std::to_string(bytes_per_round_) + " B/round");
  }
  return Status::success();
}

}  // namespace decos::spec
