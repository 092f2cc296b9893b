// Message instances and the fixed-layout wire codec.
//
// A MessageInstance is the structured in-memory form jobs and gateways
// operate on; encode()/decode() map it to/from the byte payload carried
// in virtual-network frames according to a MessageSpec. The layout is
// big-endian, fields in declaration order, no padding -- a deliberately
// simple stand-in for the interface-definition-language encodings the
// paper references (CORBA IDL / CDR).
//
// Instances carry interned Symbols alongside the message/element name
// strings; the gateway's compiled transfer plans address elements by
// Symbol and dense index so the steady state never compares strings.
// decode_into()/encode_into() are the hot-path entry points: they reuse
// the caller's scratch instance/buffer so repeated codec round trips
// perform no heap allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "spec/message_spec.hpp"
#include "ta/value.hpp"
#include "util/result.hpp"
#include "util/symbol.hpp"
#include "util/time.hpp"

namespace decos::spec {

/// Values of one element instance, parallel to ElementSpec::fields.
struct ElementValue {
  std::string element;              // element name
  Symbol element_sym{};             // interned form of `element`
  std::vector<ta::Value> fields;    // one value per FieldSpec, in order

  const ta::Value* field(const ElementSpec& spec, const std::string& field_name) const;
};

/// A structured message instance.
class MessageInstance {
 public:
  MessageInstance() = default;
  explicit MessageInstance(std::string message_name)
      : message_{std::move(message_name)}, message_sym_{intern_symbol(message_)} {}

  const std::string& message() const { return message_; }
  Symbol message_sym() const { return message_sym_; }
  void set_message(std::string name) {
    message_ = std::move(name);
    message_sym_ = intern_symbol(message_);
  }

  /// The instant the producing job handed the instance to its port (used
  /// for latency accounting and as the default observation time).
  Instant send_time() const { return send_time_; }
  void set_send_time(Instant t) { send_time_ = t; }

  void add_element(ElementValue value) {
    if (!value.element_sym.valid()) value.element_sym = intern_symbol(value.element);
    elements_.push_back(std::move(value));
  }
  const std::vector<ElementValue>& elements() const { return elements_; }
  std::vector<ElementValue>& elements() { return elements_; }

  const ElementValue* element(const std::string& element_name) const;
  ElementValue* element(const std::string& element_name);
  const ElementValue* element(Symbol element_sym) const;
  ElementValue* element(Symbol element_sym);

  /// Causal trace identity (0 = untraced). Assigned by the first traced
  /// port the instance passes through; restamped at each pipeline hop so
  /// child spans chain off the hop that produced this copy. Not part of
  /// the wire encoding -- it rides on the frame, not in the payload.
  std::uint64_t trace_id() const { return trace_id_; }
  std::uint64_t span_id() const { return span_id_; }
  void set_trace(std::uint64_t trace_id, std::uint64_t span_id) {
    trace_id_ = trace_id;
    span_id_ = span_id;
  }

  /// Convenience for tests/examples: fetch a field value by element and
  /// field name. Throws SpecError if missing.
  const ta::Value& field(const std::string& element_name, const std::string& field_name,
                         const MessageSpec& spec) const;

 private:
  std::string message_;
  Symbol message_sym_{};
  Instant send_time_;
  std::vector<ElementValue> elements_;
  std::uint64_t trace_id_ = 0;
  std::uint64_t span_id_ = 0;
};

/// Build a skeleton instance for `spec` with all static fields filled in
/// and dynamic fields zero-initialised.
MessageInstance make_instance(const MessageSpec& spec);

/// Encode `instance` according to `spec`. Fails if the instance does not
/// structurally match the spec or a value does not fit its field type.
Result<std::vector<std::byte>> encode(const MessageSpec& spec, const MessageInstance& instance);

/// Hot-path encode: reuses `out` (capacity is retained, so a warmed
/// buffer makes repeated encodes allocation-free). Runs the compiled
/// WireLayout of `spec` (template memcpy + fixed-offset stores).
Status encode_into(const MessageSpec& spec, const MessageInstance& instance,
                   std::vector<std::byte>& out);

/// Decode a payload according to `spec`. Fails on size mismatch.
Result<MessageInstance> decode(const MessageSpec& spec, std::span<const std::byte> payload);

/// Hot-path decode: overwrite `scratch` in place. If `scratch` is already
/// structured for `spec` (as left by a previous decode_into or
/// make_instance of the same spec) only field values are assigned --
/// value copy-assignment reuses string capacity, so the steady state
/// performs no heap allocation. Runs the compiled WireLayout of `spec`.
Status decode_into(const MessageSpec& spec, std::span<const std::byte> payload,
                   MessageInstance& scratch);

/// Check whether `payload` carries the message described by `spec`, by
/// comparing all static key fields (the wire-level message name). Runs
/// the compiled WireLayout of `spec` (memcmp against the pre-encoded
/// template where the encoding is bijective).
bool matches_key(const MessageSpec& spec, std::span<const std::byte> payload);

}  // namespace decos::spec
