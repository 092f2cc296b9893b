// One side of a virtual gateway (paper Fig. 4, left/right halves).
//
// A GatewayLink owns the runtime ports towards one virtual network, the
// timed-automaton interpreters animating the link specification's
// temporal part, the element renaming table that resolves incoherent
// naming between the link's namespace and the gateway repository, and
// the compiled transfer plans finalize() derives from all of the above.
//
// Runtime lookups (port/interpreter/emitter by message) are keyed by
// interned Symbol; the string-taking accessors resolve through the
// global symbol table without inserting, so they cannot be tricked into
// growing it with unknown runtime names.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/transfer_plan.hpp"
#include "spec/link_spec.hpp"
#include "spec/message.hpp"
#include "ta/interpreter.hpp"
#include "util/symbol.hpp"
#include "vn/port.hpp"

namespace decos::core {

class VirtualGateway;

class GatewayLink {
 public:
  /// `side` is 0 (link A) or 1 (link B); used in diagnostics.
  GatewayLink(int side, spec::LinkSpec link_spec);

  GatewayLink(const GatewayLink&) = delete;
  GatewayLink& operator=(const GatewayLink&) = delete;

  int side() const { return side_; }
  const spec::LinkSpec& spec() const { return link_spec_; }

  // -- element renaming (Section III-A.1) ----------------------------------
  /// Map a link-namespace element name to its repository (canonical)
  /// name. Unmapped names pass through unchanged.
  void add_rename(const std::string& link_element, const std::string& repo_element);
  const std::string& repo_name(const std::string& link_element) const;
  /// Inverse lookup used at construction time.
  const std::string& link_name(const std::string& repo_element) const;
  /// Full renaming table (link-namespace name -> repository name); the
  /// static analyzer mirrors it into its deployment model.
  const std::map<std::string, std::string>& renames_to_repo() const { return rename_to_repo_; }

  // -- runtime ports ---------------------------------------------------
  /// Created by VirtualGateway::finalize() from the link spec's port
  /// specifications. Input ports receive from the VN; output ports hold
  /// constructed messages for the VN to transmit.
  vn::Port* port(Symbol message);
  vn::Port* port(const std::string& message_name);
  const std::vector<std::unique_ptr<vn::Port>>& ports() const { return ports_; }

  /// Per-message emit override: used when the VN side needs an active
  /// push (event-triggered VNs). Default: deposit into the output port.
  void set_emitter(const std::string& message_name,
                   std::function<void(const spec::MessageInstance&)> emitter);

  // -- interpreters ------------------------------------------------------
  /// Interpreter animating the automaton that governs receptions /
  /// transmissions of `message_name`, or nullptr if none.
  ta::Interpreter* recv_interpreter(Symbol message);
  ta::Interpreter* recv_interpreter(const std::string& message_name);
  ta::Interpreter* send_interpreter(Symbol message);
  ta::Interpreter* send_interpreter(const std::string& message_name);
  /// All interpreters, keyed by automaton name.
  const std::map<std::string, std::unique_ptr<ta::Interpreter>>& interpreters() const {
    return interpreters_;
  }

  // -- compiled plans ----------------------------------------------------
  /// Built by VirtualGateway::finalize(); empty before. Exposed read-only
  /// for tests/diagnostics (declint's DL007 re-derives the same binding).
  const std::unordered_map<Symbol, DissectPlan, SymbolHash>& dissect_plans() const {
    return dissect_plans_;
  }
  const std::vector<std::unique_ptr<ConstructPlan>>& construct_plans() const {
    return construct_plans_;
  }

  /// One input port bound to its compiled dissect resources (S29). The
  /// dispatch drain and the push-notify closures process an
  /// instance through these pointers instead of re-hashing the message
  /// Symbol into the plan and interpreter maps on every arrival.
  struct InputBinding {
    vn::Port* port = nullptr;
    const spec::PortSpec* port_spec = nullptr;
    DissectPlan* plan = nullptr;              // dissect plan of the port's message
    ta::Interpreter* recv_interpreter = nullptr;  // nullptr: no receive automaton
    Symbol message_sym;
    bool is_pull = false;
    bool is_state = false;
    /// Repository slots whose request variable makes a pull drain
    /// "wanted" under pull_only_on_request (resolved from the plan).
    std::vector<ElementId> pull_request_ids;
  };
  const std::vector<InputBinding>& input_bindings() const { return input_bindings_; }

 private:
  friend class VirtualGateway;

  int side_;
  spec::LinkSpec link_spec_;
  std::map<std::string, std::string> rename_to_repo_;
  std::map<std::string, std::string> rename_to_link_;
  std::vector<std::unique_ptr<vn::Port>> ports_;
  std::unordered_map<Symbol, vn::Port*, SymbolHash> port_by_message_;
  // Automata synthesized from port specs when the link spec supplies no
  // hand-written automaton for a message (unique_ptr: pointer stability).
  std::vector<std::unique_ptr<ta::AutomatonSpec>> synthesized_;
  std::map<std::string, std::unique_ptr<ta::Interpreter>> interpreters_;  // by automaton
  std::unordered_map<Symbol, ta::Interpreter*, SymbolHash> recv_by_message_;
  std::unordered_map<Symbol, ta::Interpreter*, SymbolHash> send_by_message_;
  std::unordered_map<Symbol, std::function<void(const spec::MessageInstance&)>, SymbolHash>
      emitters_;
  // Error-state bookkeeping for auto-restart, keyed by automaton name.
  std::map<std::string, Instant> error_since_;
  // Compiled transfer plans (finalize()). Construct plans live behind
  // unique_ptr for pointer stability (the by-message index and the
  // interpreter hooks hold raw pointers).
  std::unordered_map<Symbol, DissectPlan, SymbolHash> dissect_plans_;
  std::vector<std::unique_ptr<ConstructPlan>> construct_plans_;
  std::unordered_map<Symbol, ConstructPlan*, SymbolHash> construct_by_message_;
  // Output wake-up (S29): bit i set = construct_plans_[i] is evaluated by
  // the next output pass; a clear bit is a parked plan.
  std::vector<std::uint64_t> active_plans_;
  std::uint32_t parked_held_ = 0;  // plans parked as ConstructPlan::Park::kHeld
  // Output pass in progress on this link: the index the walk visits
  // next, and the held plans woken at or beyond it (evaluated by the
  // walk, so not counted as skipped).
  static constexpr std::size_t kNoPass = static_cast<std::size_t>(-1);
  std::size_t pass_cursor_ = kNoPass;
  std::uint32_t woken_ahead_ = 0;
  // Input-port bindings in ports_ order (VirtualGateway::bind_inputs()).
  // Fully built before any notify closure captures into it, and never
  // resized afterwards, so element addresses are stable.
  std::vector<InputBinding> input_bindings_;
};

}  // namespace decos::core
