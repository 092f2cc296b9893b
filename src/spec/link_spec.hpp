// Link specifications (paper Sections II-E and IV-B, Fig. 2 middle level).
//
// The link of a gateway (or job) towards one virtual network consists of
// the ports provided to it. The link specification bundles:
//   * the syntactic part   -- one MessageSpec per handled message,
//   * the temporal part    -- deterministic timed automata expressing the
//                             port-interaction protocol,
//   * the transfer semantics -- event<->state conversion rules,
// plus port specifications and named parameters (tmin, tmax, ...) the
// automata guards reference.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "spec/message_spec.hpp"
#include "spec/port_spec.hpp"
#include "spec/transfer.hpp"
#include "ta/automaton.hpp"
#include "util/result.hpp"
#include "util/source_loc.hpp"

namespace decos::spec {

class LinkSpec {
 public:
  LinkSpec() = default;
  explicit LinkSpec(std::string das_name) : das_{std::move(das_name)} {}

  /// Name of the DAS (and thus the namespace) this link faces.
  const std::string& das() const { return das_; }
  void set_das(std::string das_name) { das_ = std::move(das_name); }

  // -- syntactic part -------------------------------------------------------
  void add_message(MessageSpec message) { messages_.push_back(std::move(message)); }
  const std::vector<MessageSpec>& messages() const { return messages_; }
  const MessageSpec* message(const std::string& name) const;

  /// Wire-level identification: which of this link's messages does the
  /// payload carry? Uses the static key fields (the message name).
  const MessageSpec* identify(std::span<const std::byte> payload) const;

  // -- temporal part --------------------------------------------------------
  void add_automaton(ta::AutomatonSpec automaton) { automata_.push_back(std::move(automaton)); }
  const std::vector<ta::AutomatonSpec>& automata() const { return automata_; }

  // -- transfer semantics ---------------------------------------------------
  void add_transfer_rule(TransferRule rule) { transfer_.push_back(std::move(rule)); }
  const std::vector<TransferRule>& transfer_rules() const { return transfer_; }

  // -- value-domain filters ---------------------------------------------------
  /// Selective redirection in the value domain (paper Section III-B.1):
  /// an instance of `message_name` is only admitted when `predicate`
  /// evaluates to true over its field values (and the link parameters).
  void set_filter(const std::string& message_name, ta::ExprPtr predicate) {
    filters_[message_name] = std::move(predicate);
  }
  const ta::ExprPtr* filter_for(const std::string& message_name) const {
    const auto it = filters_.find(message_name);
    return it == filters_.end() ? nullptr : &it->second;
  }
  const std::unordered_map<std::string, ta::ExprPtr>& filters() const { return filters_; }

  /// Source position of the <filter> element for `message_name` (invalid
  /// if the filter was installed programmatically).
  void set_filter_loc(const std::string& message_name, SourceLoc loc) {
    filter_locs_[message_name] = loc;
  }
  SourceLoc filter_loc(const std::string& message_name) const {
    const auto it = filter_locs_.find(message_name);
    return it == filter_locs_.end() ? SourceLoc{} : it->second;
  }

  // -- ports ----------------------------------------------------------------
  void add_port(PortSpec port) { ports_.push_back(std::move(port)); }
  const std::vector<PortSpec>& ports() const { return ports_; }
  const PortSpec* port_for(const std::string& message_name) const;

  /// Worst-case payload bytes `port` puts on the wire per `round`: a
  /// time-triggered port wire_size * (round / period), an event port
  /// wire_size * (round / tmin). Zero for an unbounded port (no period,
  /// no tmin), a message this link does not define, or a non-positive
  /// round.
  double port_bytes_per_round(const PortSpec& port, Duration round) const;

  // -- parameters -----------------------------------------------------------
  void set_parameter(const std::string& name, ta::Value value) { parameters_[name] = std::move(value); }
  const std::unordered_map<std::string, ta::Value>& parameters() const { return parameters_; }
  bool has_parameter(const std::string& name) const { return parameters_.count(name) != 0; }
  const ta::Value& parameter(const std::string& name) const;

  /// Names of all convertible elements appearing in this link's messages
  /// or produced by its transfer rules.
  std::vector<std::string> convertible_element_names() const;

  /// Cross-validation of all four parts.
  Status validate() const;

  SourceLoc loc{};  // position of the <linkspec> tag in its document

 private:
  std::string das_;
  std::vector<MessageSpec> messages_;
  std::vector<ta::AutomatonSpec> automata_;
  std::vector<TransferRule> transfer_;
  std::vector<PortSpec> ports_;
  std::unordered_map<std::string, ta::Value> parameters_;
  std::unordered_map<std::string, ta::ExprPtr> filters_;
  std::unordered_map<std::string, SourceLoc> filter_locs_;
};

}  // namespace decos::spec
