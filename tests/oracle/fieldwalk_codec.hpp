// Field-walk codec: the pre-S29 message codec, kept verbatim as the
// test oracle of the compiled WireLayout (src/spec/wire_layout.cpp).
//
// It walks the spec's element/field tree on every call and encodes or
// decodes one field at a time. Its bytes, Status strings and thrown
// SpecErrors define what the production codec must reproduce
// (tests/property/wire_layout_property_test.cpp); bench_e11_micro's
// BM_EncodeFieldwalk / BM_DecodeFieldwalk rows measure the compiled
// codec against it. Header-only, used from tests and benches only.
//
// Do not "improve" this code: its value is being the old semantics.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "spec/message.hpp"
#include "spec/message_spec.hpp"
#include "ta/value.hpp"
#include "util/result.hpp"
#include "util/symbol.hpp"

namespace decos::oracle {

using spec::ElementSpec;
using spec::ElementValue;
using spec::FieldSpec;
using spec::FieldType;
using spec::MessageInstance;
using spec::MessageSpec;

inline void put_uint(std::vector<std::byte>& out, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * (bytes - 1 - i))) & 0xFF));
  }
}

inline std::uint64_t get_uint(std::span<const std::byte> in, std::size_t offset,
                              std::size_t bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    v = (v << 8) | static_cast<std::uint64_t>(in[offset + i]);
  }
  return v;
}

inline std::int64_t sign_extend(std::uint64_t v, std::size_t bytes) {
  if (bytes == 8) return static_cast<std::int64_t>(v);
  const std::uint64_t sign_bit = 1ULL << (8 * bytes - 1);
  if (v & sign_bit) v |= ~((sign_bit << 1) - 1);
  return static_cast<std::int64_t>(v);
}

/// Range check for integer fields; out-of-range values are value-domain
/// faults that must not silently wrap on the wire.
inline Status check_range(const FieldSpec& f, std::int64_t v) {
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

inline Status encode_field(std::vector<std::byte>& out, const FieldSpec& f, const ta::Value& v) {
  switch (f.type) {
    case FieldType::kBoolean:
      put_uint(out, v.as_bool() ? 1 : 0, 1);
      return Status::success();
    case FieldType::kFloat32: {
      const auto bits = std::bit_cast<std::uint32_t>(static_cast<float>(v.as_real()));
      put_uint(out, bits, 4);
      return Status::success();
    }
    case FieldType::kFloat64: {
      const auto bits = std::bit_cast<std::uint64_t>(v.as_real());
      put_uint(out, bits, 8);
      return Status::success();
    }
    case FieldType::kString: {
      if (!v.is_string())
        return Status::failure("field '" + f.name + "' expects a string value");
      const std::string& s = v.as_string();
      if (s.size() > f.string_length)
        return Status::failure("string too long for field '" + f.name + "' (" +
                               std::to_string(s.size()) + " > " + std::to_string(f.string_length) + ")");
      for (std::size_t i = 0; i < f.string_length; ++i) {
        out.push_back(i < s.size() ? static_cast<std::byte>(s[i]) : std::byte{0});
      }
      return Status::success();
    }
    default: {
      const std::int64_t i = v.as_int();
      if (auto st = check_range(f, i); !st.ok()) return st;
      put_uint(out, static_cast<std::uint64_t>(i), f.wire_size());
      return Status::success();
    }
  }
}

/// Overwrite `out` with the field at `offset`. String fields append into
/// the value's existing string storage (capacity reuse); everything else
/// is a scalar assignment.
inline void decode_field_into(ta::Value& out, std::span<const std::byte> in, std::size_t offset,
                              const FieldSpec& f) {
  switch (f.type) {
    case FieldType::kBoolean:
      out = ta::Value{get_uint(in, offset, 1) != 0};
      return;
    case FieldType::kFloat32:
      out = ta::Value{static_cast<double>(
          std::bit_cast<float>(static_cast<std::uint32_t>(get_uint(in, offset, 4))))};
      return;
    case FieldType::kFloat64:
      out = ta::Value{std::bit_cast<double>(get_uint(in, offset, 8))};
      return;
    case FieldType::kString: {
      std::string& s = out.mutable_string();
      s.clear();
      for (std::size_t i = 0; i < f.string_length; ++i) {
        const char c = static_cast<char>(in[offset + i]);
        if (c == '\0') break;
        s.push_back(c);
      }
      return;
    }
    case FieldType::kUInt8:
    case FieldType::kUInt16:
    case FieldType::kUInt32:
    case FieldType::kUInt64:
      out = ta::Value{static_cast<std::int64_t>(get_uint(in, offset, f.wire_size()))};
      return;
    default:
      out = ta::Value{sign_extend(get_uint(in, offset, f.wire_size()), f.wire_size())};
      return;
  }
}

inline ta::Value decode_field(std::span<const std::byte> in, std::size_t offset,
                              const FieldSpec& f) {
  ta::Value v;
  decode_field_into(v, in, offset, f);
  return v;
}

inline Status encode_fieldwalk_into(const MessageSpec& spec, const MessageInstance& instance,
                                    std::vector<std::byte>& out) {
  if (instance.message() != spec.name())
    return Status::failure("instance of '" + instance.message() + "' encoded against spec '" +
                           spec.name() + "'");
  out.clear();
  out.reserve(spec.wire_size());
  if (instance.elements().size() != spec.elements().size())
    return Status::failure("instance of '" + spec.name() + "' has " +
                           std::to_string(instance.elements().size()) + " elements, spec has " +
                           std::to_string(spec.elements().size()));
  for (std::size_t ei = 0; ei < spec.elements().size(); ++ei) {
    const ElementSpec& es = spec.elements()[ei];
    const ElementValue& ev = instance.elements()[ei];
    if (ev.element != es.name)
      return Status::failure("element order mismatch: expected '" + es.name + "', got '" +
                             ev.element + "'");
    if (ev.fields.size() != es.fields.size())
      return Status::failure("element '" + es.name + "' field count mismatch");
    for (std::size_t fi = 0; fi < es.fields.size(); ++fi) {
      if (auto st = encode_field(out, es.fields[fi], ev.fields[fi]); !st.ok()) return st;
    }
  }
  return Status::success();
}

inline Status decode_fieldwalk_into(const MessageSpec& spec, std::span<const std::byte> payload,
                                    MessageInstance& scratch) {
  if (payload.size() != spec.wire_size())
    return Status::failure("payload size " + std::to_string(payload.size()) +
                           " does not match spec '" + spec.name() + "' (" +
                           std::to_string(spec.wire_size()) + " bytes)");
  // (Re)build the element skeleton only when the scratch instance is not
  // already shaped for this spec; in the steady state the structure
  // matches and only values are overwritten.
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
  std::size_t offset = 0;
  for (std::size_t ei = 0; ei < spec.elements().size(); ++ei) {
    const ElementSpec& es = spec.elements()[ei];
    ElementValue& ev = scratch.elements()[ei];
    if (ev.fields.size() != es.fields.size()) ev.fields.resize(es.fields.size());
    for (std::size_t fi = 0; fi < es.fields.size(); ++fi) {
      decode_field_into(ev.fields[fi], payload, offset, es.fields[fi]);
      offset += es.fields[fi].wire_size();
    }
  }
  scratch.set_trace(0, 0);
  return Status::success();
}

inline bool matches_key_fieldwalk(const MessageSpec& spec, std::span<const std::byte> payload) {
  if (payload.size() != spec.wire_size()) return false;
  std::size_t offset = 0;
  bool has_key = false;
  for (const auto& es : spec.elements()) {
    for (const auto& fs : es.fields) {
      if (es.key && fs.static_value) {
        has_key = true;
        const ta::Value decoded = decode_field(payload, offset, fs);
        if (!(decoded == *fs.static_value)) return false;
      }
      offset += fs.wire_size();
    }
  }
  return has_key;
}

}  // namespace decos::oracle
