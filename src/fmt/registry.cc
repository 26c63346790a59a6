#include "fmt/registry.h"

namespace pbio::fmt {

namespace {

/// Throws unless `known`, the entry already registered under `f`'s id, has
/// the same content as `f`.
void check_same(const FormatDesc& known, const FormatDesc& f) {
  if (known != f) {
    throw PbioError("format id collision for '" + f.name + "'");
  }
}

}  // namespace

FormatId FormatRegistry::register_format(FormatDesc f) {
  const FormatId id = f.fingerprint();
  {
    // Known id first: an equal entry passed validate() when it was
    // inserted, so re-registering it costs one hash and one compare.
    MutexLock lock(mu_);
    auto it = formats_.find(id);
    if (it != formats_.end()) {
      check_same(*it->second.desc, f);
      return id;
    }
  }
  f.validate();
  const std::uint64_t canonical = canonical_hash(f);
  MutexLock lock(mu_);
  auto it = formats_.find(id);
  if (it != formats_.end()) {  // a racing registration of the same id won
    check_same(*it->second.desc, f);
    return id;
  }
  by_name_[f.name] = id;
  formats_.emplace(
      id, Entry{std::make_unique<FormatDesc>(std::move(f)), canonical});
  // Publish to the negative cache last, while still holding mu_: a probe
  // that misses the bloom filter can then never race ahead of the map
  // insert for an id it could legitimately know about.
  bloom_.insert(id);
  return id;
}

const FormatDesc* FormatRegistry::find(FormatId id) const {
  MutexLock lock(mu_);
  auto it = formats_.find(id);
  return it == formats_.end() ? nullptr : it->second.desc.get();
}

FormatRegistry::Resolved FormatRegistry::resolve(FormatId id) const {
  MutexLock lock(mu_);
  auto it = formats_.find(id);
  if (it == formats_.end()) return {};
  return {it->second.desc.get(), it->second.canonical};
}

const FormatDesc* FormatRegistry::find_by_name(std::string_view name) const {
  MutexLock lock(mu_);
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) return nullptr;
  auto fit = formats_.find(it->second);
  return fit == formats_.end() ? nullptr : fit->second.desc.get();
}

std::size_t FormatRegistry::size() const {
  MutexLock lock(mu_);
  return formats_.size();
}

std::vector<FormatId> FormatRegistry::ids() const {
  MutexLock lock(mu_);
  std::vector<FormatId> out;
  out.reserve(formats_.size());
  for (const auto& [id, _] : formats_) out.push_back(id);
  return out;
}

}  // namespace pbio::fmt
