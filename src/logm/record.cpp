#include "logm/record.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace dla::logm {

Schema::Schema(std::vector<AttributeDef> attrs) : attrs_(std::move(attrs)) {
  for (std::size_t i = 0; i < attrs_.size(); ++i) {
    auto [it, inserted] = index_.emplace(attrs_[i].name, i);
    if (!inserted)
      throw std::invalid_argument("Schema: duplicate attribute " +
                                  attrs_[i].name);
  }
}

std::optional<std::size_t> Schema::index_of(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

const AttributeDef& Schema::at(const std::string& name) const {
  auto idx = index_of(name);
  if (!idx) throw std::out_of_range("Schema: unknown attribute " + name);
  return attrs_[*idx];
}

bool Schema::admits(const std::map<std::string, Value>& attrs) const {
  for (const auto& [name, value] : attrs) {
    const std::optional<std::size_t> idx = index_of(name);
    if (!idx) return false;
    const bool text = value.type() == ValueType::Text;
    if (text != (attrs_[*idx].type == ValueType::Text)) return false;
    if (value.type() == ValueType::Real && std::isnan(value.as_real())) {
      return false;
    }
  }
  return true;
}

std::size_t Schema::undefined_count() const {
  std::size_t v = 0;
  for (const auto& a : attrs_) {
    if (a.undefined) ++v;
  }
  return v;
}

namespace {

std::string canonical_attrs(Glsn glsn,
                            const std::map<std::string, Value>& attrs) {
  // std::map iteration is name-ordered, so this rendering is stable
  // regardless of insertion order — required for accumulator equality.
  std::ostringstream os;
  os << "glsn=" << std::hex << glsn;
  for (const auto& [name, value] : attrs) {
    os << '|' << name << '=' << value.canonical();
  }
  return os.str();
}

void encode_attrs(net::Writer& w, Glsn glsn,
                  const std::map<std::string, Value>& attrs) {
  w.u64(glsn);
  w.u32(static_cast<std::uint32_t>(attrs.size()));
  for (const auto& [name, value] : attrs) {
    w.str(name);
    value.encode(w);
  }
}

std::map<std::string, Value> decode_attrs(net::Reader& r, Glsn& glsn) {
  glsn = r.u64();
  std::uint32_t count = r.u32();
  std::map<std::string, Value> attrs;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = r.str();
    attrs.emplace(std::move(name), Value::decode(r));
  }
  return attrs;
}

}  // namespace

std::string LogRecord::canonical() const { return canonical_attrs(glsn, attrs); }

void LogRecord::encode(net::Writer& w) const { encode_attrs(w, glsn, attrs); }

LogRecord LogRecord::decode(net::Reader& r) {
  LogRecord rec;
  rec.attrs = decode_attrs(r, rec.glsn);
  return rec;
}

std::string Fragment::canonical() const { return canonical_attrs(glsn, attrs); }

void Fragment::encode(net::Writer& w) const { encode_attrs(w, glsn, attrs); }

Fragment Fragment::decode(net::Reader& r) {
  Fragment frag;
  frag.attrs = decode_attrs(r, frag.glsn);
  return frag;
}

AttributePartition AttributePartition::round_robin(const Schema& schema,
                                                   std::size_t n) {
  if (n == 0)
    throw std::invalid_argument("AttributePartition: zero nodes");
  std::vector<std::vector<std::string>> sets(n);
  std::size_t i = 0;
  for (const auto& attr : schema.attributes()) {
    sets[i % n].push_back(attr.name);
    ++i;
  }
  return explicit_sets(schema, std::move(sets));
}

AttributePartition AttributePartition::explicit_sets(
    const Schema& schema, std::vector<std::vector<std::string>> sets) {
  if (sets.empty())
    throw std::invalid_argument("AttributePartition: zero nodes");
  AttributePartition p;
  p.sets_ = std::move(sets);
  for (std::size_t node = 0; node < p.sets_.size(); ++node) {
    for (const auto& attr : p.sets_[node]) {
      if (!schema.contains(attr))
        throw std::invalid_argument("AttributePartition: attribute " + attr +
                                    " not in schema");
      auto [it, inserted] = p.owner_.emplace(attr, node);
      if (!inserted)
        throw std::invalid_argument(
            "AttributePartition: attribute assigned twice: " + attr);
    }
  }
  // Coverage: union A_i == I (paper Section 4).
  for (const auto& attr : schema.attributes()) {
    if (!p.owner_.contains(attr.name))
      throw std::invalid_argument("AttributePartition: attribute " +
                                  attr.name + " unassigned");
  }
  return p;
}

const std::vector<std::string>& AttributePartition::attributes_of(
    std::size_t node) const {
  if (node >= sets_.size())
    throw std::out_of_range("AttributePartition: bad node index");
  return sets_[node];
}

std::size_t AttributePartition::node_for(const std::string& attr) const {
  auto it = owner_.find(attr);
  if (it == owner_.end())
    throw std::out_of_range("AttributePartition: unknown attribute " + attr);
  return it->second;
}

std::vector<Fragment> AttributePartition::fragment(
    const LogRecord& record) const {
  std::vector<Fragment> frags(sets_.size());
  for (auto& f : frags) f.glsn = record.glsn;
  for (const auto& [name, value] : record.attrs) {
    frags[node_for(name)].attrs.emplace(name, value);
  }
  return frags;
}

std::size_t AttributePartition::covering_nodes(const LogRecord& record) const {
  std::vector<bool> used(sets_.size(), false);
  for (const auto& [name, value] : record.attrs) {
    used[node_for(name)] = true;
  }
  std::size_t u = 0;
  for (bool b : used) {
    if (b) ++u;
  }
  return u;
}

}  // namespace dla::logm
