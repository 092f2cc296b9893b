#include "spec/message.hpp"

#include "spec/wire_layout.hpp"

namespace decos::spec {

const ta::Value* ElementValue::field(const ElementSpec& spec, const std::string& field_name) const {
  for (std::size_t i = 0; i < spec.fields.size() && i < fields.size(); ++i) {
    if (spec.fields[i].name == field_name) return &fields[i];
  }
  return nullptr;
}

const ElementValue* MessageInstance::element(const std::string& element_name) const {
  for (const auto& e : elements_)
    if (e.element == element_name) return &e;
  return nullptr;
}

ElementValue* MessageInstance::element(const std::string& element_name) {
  for (auto& e : elements_)
    if (e.element == element_name) return &e;
  return nullptr;
}

const ElementValue* MessageInstance::element(Symbol element_sym) const {
  for (const auto& e : elements_)
    if (e.element_sym == element_sym) return &e;
  return nullptr;
}

ElementValue* MessageInstance::element(Symbol element_sym) {
  for (auto& e : elements_)
    if (e.element_sym == element_sym) return &e;
  return nullptr;
}

const ta::Value& MessageInstance::field(const std::string& element_name,
                                        const std::string& field_name,
                                        const MessageSpec& spec) const {
  const ElementSpec* es = spec.element(element_name);
  if (es == nullptr)
    throw SpecError("message '" + message_ + "' has no element '" + element_name + "'");
  const ElementValue* ev = element(element_name);
  if (ev == nullptr)
    throw SpecError("instance of '" + message_ + "' is missing element '" + element_name + "'");
  const ta::Value* v = ev->field(*es, field_name);
  if (v == nullptr)
    throw SpecError("element '" + element_name + "' has no field '" + field_name + "'");
  return *v;
}

MessageInstance make_instance(const MessageSpec& spec) {
  MessageInstance inst{spec.name()};
  for (const auto& es : spec.elements()) {
    ElementValue ev;
    ev.element = es.name;
    ev.element_sym = intern_symbol(es.name);
    for (const auto& fs : es.fields) {
      if (fs.static_value) {
        ev.fields.push_back(*fs.static_value);
      } else if (fs.type == FieldType::kString) {
        ev.fields.push_back(ta::Value{std::string{}});
      } else if (fs.type == FieldType::kBoolean) {
        ev.fields.push_back(ta::Value{false});
      } else if (fs.type == FieldType::kFloat32 || fs.type == FieldType::kFloat64) {
        ev.fields.push_back(ta::Value{0.0});
      } else {
        ev.fields.push_back(ta::Value{std::int64_t{0}});
      }
    }
    inst.add_element(std::move(ev));
  }
  return inst;
}

Result<std::vector<std::byte>> encode(const MessageSpec& spec, const MessageInstance& instance) {
  std::vector<std::byte> out;
  if (auto st = encode_into(spec, instance, out); !st.ok()) return st.error();
  return out;
}

Status encode_into(const MessageSpec& spec, const MessageInstance& instance,
                   std::vector<std::byte>& out) {
  return spec.layout().encode_into(spec, instance, out);
}

Result<MessageInstance> decode(const MessageSpec& spec, std::span<const std::byte> payload) {
  MessageInstance inst;
  if (auto st = decode_into(spec, payload, inst); !st.ok()) return st.error();
  return inst;
}

Status decode_into(const MessageSpec& spec, std::span<const std::byte> payload,
                   MessageInstance& scratch) {
  return spec.layout().decode_into(spec, payload, scratch);
}

bool matches_key(const MessageSpec& spec, std::span<const std::byte> payload) {
  return spec.layout().matches_key(payload);
}

}  // namespace decos::spec
