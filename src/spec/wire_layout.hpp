// Compiled wire layouts (DESIGN.md S29): the codec-side analogue of the
// S23 compiled transfer plans.
//
// A WireLayout is compiled once per MessageSpec and flattens the spec's
// element/field tree into a dense offset/type-tag op table plus a
// pre-encoded template of all static fields. The hot encode path is then
// one resize + one memcpy of the template followed by a branch-light
// loop over dynamic-field ops at fixed offsets; the hot decode path is
// the same loop in reverse. No per-field FieldType switch over a sparse
// enum, no per-byte push_back, no string hashing.
//
// The layout is total: it is the only codec. A static field is copied
// from the template only when the template holds its bytes and the
// instance carries exactly the spec's value; any other static (one that
// did not pre-encode, or an instance value that differs) is encoded per
// op like a dynamic field. Bytes, Status strings and thrown SpecErrors
// are pinned against the pre-S29 field-walk codec, kept as a test
// oracle (wire_layout_property_test). The on-error *content* of an
// encode output buffer is unspecified (only Status is contractual).
//
// A WireLayout holds no pointers into its MessageSpec (indices and
// copied static values only), so specs may be moved (e.g. vector
// growth) without invalidating a published layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ta/value.hpp"
#include "util/result.hpp"

namespace decos::spec {

class MessageInstance;
class MessageSpec;

class WireLayout {
 public:
  /// Flatten `spec` into an op table. Never fails: a static field that
  /// cannot be encoded (wrong type / out of range) stays out of the
  /// template and is encoded per op, reporting its error there.
  static WireLayout compile(const MessageSpec& spec);

  /// The codec behind spec::encode_into / decode_into / matches_key.
  /// `spec` must be the spec this layout was compiled from (it is
  /// consulted for structural checks and cold error paths).
  Status encode_into(const MessageSpec& spec, const MessageInstance& instance,
                     std::vector<std::byte>& out) const;
  Status decode_into(const MessageSpec& spec, std::span<const std::byte> payload,
                     MessageInstance& scratch) const;
  bool matches_key(std::span<const std::byte> payload) const;

  std::size_t wire_size() const { return wire_size_; }

 private:
  /// Dense op tags: every FieldType collapsed to width + signedness
  /// (kTimestamp is kI64 on the wire).
  enum class OpKind : std::uint8_t {
    kBool, kI8, kI16, kI32, kI64, kU8, kU16, kU32, kU64, kF32, kF64, kString,
  };

  struct FieldOp {
    OpKind kind = OpKind::kI32;
    bool is_static = false;
    /// The template holds this static's encoded bytes (false when the
    /// spec's static value does not encode).
    bool in_template = false;
    /// matches_key: this static key field may be compared by memcmp
    /// against the template (sound only for in-range integer statics;
    /// booleans, strings and floats have non-injective encodings).
    bool key_memcmp = false;
    bool key = false;              // field of a key element with a static value
    std::uint32_t element = 0;     // element index in the spec
    std::uint32_t field = 0;       // field index within the element
    std::uint32_t offset = 0;      // wire offset
    std::uint32_t length = 0;      // kString: bytes on the wire
    std::int64_t lo = 0;           // integer range (inclusive)
    std::int64_t hi = 0;
    std::uint32_t static_idx = 0;  // into static_values_ when is_static
  };

  /// Op range [begin, end) of one element, in declaration order.
  struct ElementRange {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  /// Wire bytes of a scalar op (kString: unused, see FieldOp::length).
  static constexpr std::size_t op_width(OpKind kind) {
    switch (kind) {
      case OpKind::kI16: case OpKind::kU16: return 2;
      case OpKind::kI32: case OpKind::kU32: case OpKind::kF32: return 4;
      case OpKind::kI64: case OpKind::kU64: case OpKind::kF64: return 8;
      default: return 1;
    }
  }

  bool static_equals(const FieldOp& op, const ta::Value& v) const;

  /// Encode `v` at op's offset into `out`: the same bytes, Status text
  /// or thrown SpecError as the field-walk codec for that field.
  static Status encode_op(const MessageSpec& spec, const FieldOp& op, const ta::Value& v,
                          std::byte* out);
  /// Overwrite `v` with the field at op's offset of `in` (string
  /// capacity is reused).
  static void decode_op(const FieldOp& op, const std::byte* in, ta::Value& v);

  std::size_t wire_size_ = 0;
  bool has_key_ = false;
  std::vector<FieldOp> ops_;               // all fields, declaration order
  std::vector<ElementRange> elements_;     // parallel to spec elements
  std::vector<ta::Value> static_values_;   // copied spec static values
  std::vector<std::byte> template_;        // statics pre-encoded, rest zero
};

}  // namespace decos::spec
