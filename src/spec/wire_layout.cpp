#include "spec/wire_layout.hpp"

#include <bit>
#include <cstring>
#include <limits>
#include <string>

#include "spec/message.hpp"
#include "spec/message_spec.hpp"

namespace decos::spec {

namespace {

/// Big-endian store of the low `bytes` bytes of `v` at `out`.
void store_be(std::byte* out, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<std::byte>((v >> (8 * (bytes - 1 - i))) & 0xFF);
  }
}

/// Big-endian load of `bytes` bytes at `in`.
std::uint64_t load_be(const std::byte* in, std::size_t bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    v = (v << 8) | static_cast<std::uint64_t>(in[i]);
  }
  return v;
}

std::int64_t sign_extend(std::uint64_t v, std::size_t bytes) {
  if (bytes == 8) return static_cast<std::int64_t>(v);
  const std::uint64_t sign_bit = 1ULL << (8 * bytes - 1);
  if (v & sign_bit) v |= ~((sign_bit << 1) - 1);
  return static_cast<std::int64_t>(v);
}

/// Range check for integer fields; out-of-range values are value-domain
/// faults that must not silently wrap on the wire.
Status check_range(const FieldSpec& f, std::int64_t v) {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  switch (f.type) {
    case FieldType::kInt8: lo = -128; hi = 127; break;
    case FieldType::kInt16: lo = -32768; hi = 32767; break;
    case FieldType::kInt32: lo = std::numeric_limits<std::int32_t>::min(); hi = std::numeric_limits<std::int32_t>::max(); break;
    case FieldType::kInt64: return Status::success();
    case FieldType::kUInt8: lo = 0; hi = 255; break;
    case FieldType::kUInt16: lo = 0; hi = 65535; break;
    case FieldType::kUInt32: lo = 0; hi = 4294967295LL; break;
    case FieldType::kUInt64: return v >= 0 ? Status::success()
                                           : Status::failure("negative value for uint64 field '" + f.name + "'");
    default: return Status::success();
  }
  if (v < lo || v > hi)
    return Status::failure("value " + std::to_string(v) + " out of range for field '" + f.name +
                           "' (" + field_type_name(f.type) + ")");
  return Status::success();
}

}  // namespace

WireLayout WireLayout::compile(const MessageSpec& spec) {
  WireLayout layout;
  layout.wire_size_ = spec.wire_size();
  layout.template_.assign(layout.wire_size_, std::byte{0});
  layout.elements_.reserve(spec.elements().size());

  std::uint32_t offset = 0;
  for (std::uint32_t ei = 0; ei < spec.elements().size(); ++ei) {
    const ElementSpec& es = spec.elements()[ei];
    ElementRange range;
    range.begin = static_cast<std::uint32_t>(layout.ops_.size());
    for (std::uint32_t fi = 0; fi < es.fields.size(); ++fi) {
      const FieldSpec& fs = es.fields[fi];
      FieldOp op;
      op.element = ei;
      op.field = fi;
      op.offset = offset;
      switch (fs.type) {
        case FieldType::kBoolean: op.kind = OpKind::kBool; break;
        case FieldType::kInt8: op.kind = OpKind::kI8; op.lo = -128; op.hi = 127; break;
        case FieldType::kInt16: op.kind = OpKind::kI16; op.lo = -32768; op.hi = 32767; break;
        case FieldType::kInt32:
          op.kind = OpKind::kI32;
          op.lo = std::numeric_limits<std::int32_t>::min();
          op.hi = std::numeric_limits<std::int32_t>::max();
          break;
        case FieldType::kInt64:
        case FieldType::kTimestamp:
          op.kind = OpKind::kI64;
          op.lo = std::numeric_limits<std::int64_t>::min();
          op.hi = std::numeric_limits<std::int64_t>::max();
          break;
        case FieldType::kUInt8: op.kind = OpKind::kU8; op.lo = 0; op.hi = 255; break;
        case FieldType::kUInt16: op.kind = OpKind::kU16; op.lo = 0; op.hi = 65535; break;
        case FieldType::kUInt32: op.kind = OpKind::kU32; op.lo = 0; op.hi = 4294967295LL; break;
        case FieldType::kUInt64:
          op.kind = OpKind::kU64;
          op.lo = 0;
          op.hi = std::numeric_limits<std::int64_t>::max();
          break;
        case FieldType::kFloat32: op.kind = OpKind::kF32; break;
        case FieldType::kFloat64: op.kind = OpKind::kF64; break;
        case FieldType::kString:
          op.kind = OpKind::kString;
          op.length = static_cast<std::uint32_t>(fs.string_length);
          break;
      }
      if (fs.static_value) {
        op.is_static = true;
        op.key = es.key;
        op.static_idx = static_cast<std::uint32_t>(layout.static_values_.size());
        layout.static_values_.push_back(*fs.static_value);
        layout.has_key_ = layout.has_key_ || op.key;
        // Pre-encode the static into the template with the same per-op
        // encoder the dynamic fields use. A static that does not encode
        // (wrong type, out of range) stays out of the template: encode
        // then runs it per op and reports its error in field order.
        try {
          op.in_template =
              encode_op(spec, op, *fs.static_value, layout.template_.data()).ok();
        } catch (const SpecError&) {
          op.in_template = false;
        }
        // memcmp key matching is sound only when encode and decode are
        // inverse bijections on the comparison domain: integer statics
        // of integer fields. Booleans (any nonzero byte is true),
        // strings (NUL-stop ignores padding) and floats (-0.0 == 0.0,
        // NaN != NaN) need the decode-and-compare path.
        op.key_memcmp = op.in_template && op.key && fs.static_value->is_int() &&
                        op.kind != OpKind::kBool && op.kind != OpKind::kF32 &&
                        op.kind != OpKind::kF64 && op.kind != OpKind::kString;
      }
      layout.ops_.push_back(op);
      offset += static_cast<std::uint32_t>(fs.wire_size());
    }
    range.end = static_cast<std::uint32_t>(layout.ops_.size());
    layout.elements_.push_back(range);
  }
  return layout;
}

bool WireLayout::static_equals(const FieldOp& op, const ta::Value& v) const {
  // Bit-exact match against the spec's static value: same variant
  // alternative, identical payload. Anything looser (Value::operator==
  // coerces across numeric alternatives and equates -0.0 with 0.0)
  // could diverge from the bytes the reference path would produce.
  const ta::Value& s = static_values_[op.static_idx];
  if (v.is_int()) return s.is_int() && v.as_int() == s.as_int();
  if (v.is_bool()) return s.is_bool() && v.as_bool() == s.as_bool();
  if (v.is_real())
    return s.is_real() &&
           std::bit_cast<std::uint64_t>(v.as_real()) == std::bit_cast<std::uint64_t>(s.as_real());
  return s.is_string() && v.as_string() == s.as_string();
}

Status WireLayout::encode_op(const MessageSpec& spec, const FieldOp& op, const ta::Value& v,
                             std::byte* out) {
  switch (op.kind) {
    case OpKind::kBool:
      out[op.offset] = v.as_bool() ? std::byte{1} : std::byte{0};
      return Status::success();
    case OpKind::kF32:
      store_be(out + op.offset, std::bit_cast<std::uint32_t>(static_cast<float>(v.as_real())), 4);
      return Status::success();
    case OpKind::kF64:
      store_be(out + op.offset, std::bit_cast<std::uint64_t>(v.as_real()), 8);
      return Status::success();
    case OpKind::kString: {
      const FieldSpec& fs = spec.elements()[op.element].fields[op.field];
      if (!v.is_string())
        return Status::failure("field '" + fs.name + "' expects a string value");
      const std::string& s = v.as_string();
      if (s.size() > op.length)
        return Status::failure("string too long for field '" + fs.name + "' (" +
                               std::to_string(s.size()) + " > " + std::to_string(op.length) + ")");
      std::memcpy(out + op.offset, s.data(), s.size());
      std::memset(out + op.offset + s.size(), 0, op.length - s.size());
      return Status::success();
    }
    default: {
      const std::int64_t i = v.as_int();
      if (i < op.lo || i > op.hi)
        return check_range(spec.elements()[op.element].fields[op.field], i);
      store_be(out + op.offset, static_cast<std::uint64_t>(i), op_width(op.kind));
      return Status::success();
    }
  }
}

Status WireLayout::encode_into(const MessageSpec& spec, const MessageInstance& instance,
                               std::vector<std::byte>& out) const {
  if (instance.message() != spec.name())
    return Status::failure("instance of '" + instance.message() + "' encoded against spec '" +
                           spec.name() + "'");
  if (instance.elements().size() != spec.elements().size())
    return Status::failure("instance of '" + spec.name() + "' has " +
                           std::to_string(instance.elements().size()) + " elements, spec has " +
                           std::to_string(spec.elements().size()));
  out.resize(wire_size_);
  std::byte* p = out.data();
  if (wire_size_ != 0) std::memcpy(p, template_.data(), wire_size_);
  for (std::size_t ei = 0; ei < elements_.size(); ++ei) {
    const ElementSpec& es = spec.elements()[ei];
    const ElementValue& ev = instance.elements()[ei];
    if (ev.element != es.name)
      return Status::failure("element order mismatch: expected '" + es.name + "', got '" +
                             ev.element + "'");
    if (ev.fields.size() != es.fields.size())
      return Status::failure("element '" + es.name + "' field count mismatch");
    for (std::uint32_t oi = elements_[ei].begin; oi < elements_[ei].end; ++oi) {
      const FieldOp& op = ops_[oi];
      const ta::Value& v = ev.fields[op.field];
      // Template bytes hold the spec's static value; they stand only if
      // the instance carries exactly that value. Anything else encodes
      // what the instance holds, like a dynamic field.
      if (op.in_template && static_equals(op, v)) continue;
      if (auto st = encode_op(spec, op, v, p); !st.ok()) return st;
    }
  }
  return Status::success();
}

// Forced inline: decode_into's per-field loop is the hot decode path and
// must not pay a call per field for sharing this with matches_key.
[[gnu::always_inline]] inline void WireLayout::decode_op(const FieldOp& op, const std::byte* in,
                                                        ta::Value& v) {
  const std::byte* at = in + op.offset;
  switch (op.kind) {
    case OpKind::kBool: v = ta::Value{*at != std::byte{0}}; return;
    case OpKind::kI8: v = ta::Value{sign_extend(load_be(at, 1), 1)}; return;
    case OpKind::kI16: v = ta::Value{sign_extend(load_be(at, 2), 2)}; return;
    case OpKind::kI32: v = ta::Value{sign_extend(load_be(at, 4), 4)}; return;
    case OpKind::kI64: v = ta::Value{static_cast<std::int64_t>(load_be(at, 8))}; return;
    case OpKind::kU8: v = ta::Value{static_cast<std::int64_t>(load_be(at, 1))}; return;
    case OpKind::kU16: v = ta::Value{static_cast<std::int64_t>(load_be(at, 2))}; return;
    case OpKind::kU32: v = ta::Value{static_cast<std::int64_t>(load_be(at, 4))}; return;
    case OpKind::kU64: v = ta::Value{static_cast<std::int64_t>(load_be(at, 8))}; return;
    case OpKind::kF32:
      v = ta::Value{
          static_cast<double>(std::bit_cast<float>(static_cast<std::uint32_t>(load_be(at, 4))))};
      return;
    case OpKind::kF64: v = ta::Value{std::bit_cast<double>(load_be(at, 8))}; return;
    case OpKind::kString: {
      std::string& s = v.mutable_string();
      const char* chars = reinterpret_cast<const char*>(at);
      const void* nul = std::memchr(chars, '\0', op.length);
      s.assign(chars, nul ? static_cast<const char*>(nul) - chars : op.length);
      return;
    }
  }
}

Status WireLayout::decode_into(const MessageSpec& spec, std::span<const std::byte> payload,
                               MessageInstance& scratch) const {
  if (payload.size() != wire_size_)
    return Status::failure("payload size " + std::to_string(payload.size()) +
                           " does not match spec '" + spec.name() + "' (" +
                           std::to_string(wire_size_) + " bytes)");
  const bool structured = scratch.message_sym().valid() &&
                          scratch.message_sym() == spec.name_sym() &&
                          scratch.elements().size() == spec.elements().size();
  if (!structured) {
    scratch.set_message(spec.name());
    scratch.elements().clear();
    for (const auto& es : spec.elements()) {
      ElementValue ev;
      ev.element = es.name;
      ev.element_sym = intern_symbol(es.name);
      ev.fields.resize(es.fields.size());
      scratch.add_element(std::move(ev));
    }
  }
  const std::byte* p = payload.data();
  for (std::size_t ei = 0; ei < elements_.size(); ++ei) {
    ElementValue& ev = scratch.elements()[ei];
    const std::size_t field_count = spec.elements()[ei].fields.size();
    if (ev.fields.size() != field_count) ev.fields.resize(field_count);
    for (std::uint32_t oi = elements_[ei].begin; oi < elements_[ei].end; ++oi) {
      const FieldOp& op = ops_[oi];
      decode_op(op, p, ev.fields[op.field]);
    }
  }
  scratch.set_trace(0, 0);
  return Status::success();
}

bool WireLayout::matches_key(std::span<const std::byte> payload) const {
  if (payload.size() != wire_size_) return false;
  for (const FieldOp& op : ops_) {
    if (!op.key) continue;
    if (op.key_memcmp) {
      if (std::memcmp(payload.data() + op.offset, template_.data() + op.offset,
                      op_width(op.kind)) != 0)
        return false;
      continue;
    }
    ta::Value decoded;
    decode_op(op, payload.data(), decoded);
    if (!(decoded == static_values_[op.static_idx])) return false;
  }
  return has_key_;
}

}  // namespace decos::spec
