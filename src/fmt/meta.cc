#include "fmt/meta.h"

#include "util/buffer.h"
#include "util/hash.h"
#include "util/sorted.h"

namespace pbio::fmt {

namespace {

constexpr std::uint8_t kMetaVersion = 1;
constexpr ByteOrder kMetaOrder = ByteOrder::kLittle;
constexpr std::size_t kMaxName = 4096;
constexpr std::size_t kMaxFields = 65535;

/// Meta bytes fed straight into FNV-1a instead of a buffer: hashing the
/// encoding this way gives exactly fnv1a(encode_meta(f)) with no copy.
struct HashSink {
  std::uint64_t h;

  void append_uint(std::uint64_t v, std::size_t width, ByteOrder order) {
    std::uint8_t b[8];
    store_uint(b, v, width, order);
    h = fnv1a(b, width, h);
  }
  void append(const void* p, std::size_t n) { h = fnv1a(p, n, h); }
};

template <typename Out>
void put_str(Out& out, std::string_view s) {
  out.append_uint(s.size(), 2, kMetaOrder);
  out.append(s.data(), s.size());
}

WIRE_TAINTED bool get_str(ByteReader& in, std::string* out) {
  std::uint64_t n = 0;
  if (!in.read_uint(&n, 2, kMetaOrder)) return false;
  if (n > kMaxName || in.remaining() < n) return false;
  out->assign(reinterpret_cast<const char*>(in.cursor()),
              static_cast<std::size_t>(n));
  return in.skip(static_cast<std::size_t>(n));
}

template <typename Out>
void encode_field(Out& out, const FieldDesc& fd) {
  put_str(out, fd.name);
    out.append_uint(static_cast<std::uint8_t>(fd.base), 1, kMetaOrder);
    put_str(out, fd.subformat);
    out.append_uint(fd.elem_size, 4, kMetaOrder);
    out.append_uint(fd.static_elems, 4, kMetaOrder);
    put_str(out, fd.var_dim_field);
    out.append_uint(fd.offset, 4, kMetaOrder);
    out.append_uint(fd.slot_size, 4, kMetaOrder);
}

bool canonical_field_order(const FieldDesc& a, const FieldDesc& b) {
  if (a.offset != b.offset) return a.offset < b.offset;
  return a.name < b.name;
}

/// One format's meta record. `canonical` writes the canonical form (see
/// fmt::canonical_hash): no arch name, fields ordered by (offset, name).
template <typename Out>
void encode_one(Out& out, const FormatDesc& f, bool canonical) {
  put_str(out, f.name);
  out.append_uint(static_cast<std::uint8_t>(f.byte_order), 1, kMetaOrder);
  out.append_uint(f.pointer_size, 1, kMetaOrder);
  out.append_uint(f.fixed_size, 4, kMetaOrder);
  put_str(out, canonical ? std::string_view() : f.arch_name);
  out.append_uint(f.fields.size(), 2, kMetaOrder);
  if (!canonical) {
    for (const FieldDesc& fd : f.fields) encode_field(out, fd);
    return;
  }
  for_each_sorted(f.fields, canonical_field_order,
                  [&out](const FieldDesc& fd) { encode_field(out, fd); });
}

/// The whole meta encoding; `canonical` also orders subformats by name.
template <typename Out>
void encode_all(Out& out, const FormatDesc& f, bool canonical) {
  out.append_uint(kMetaVersion, 1, kMetaOrder);
  encode_one(out, f, canonical);
  out.append_uint(f.subformats.size(), 2, kMetaOrder);
  if (!canonical) {
    for (const FormatDesc& sub : f.subformats) encode_one(out, sub, false);
    return;
  }
  for_each_sorted(
      f.subformats,
      [](const FormatDesc& a, const FormatDesc& b) { return a.name < b.name; },
      [&out](const FormatDesc& sub) { encode_one(out, sub, true); });
}

WIRE_TAINTED bool decode_one(ByteReader& in, FormatDesc* f) {
  if (!get_str(in, &f->name)) return false;
  std::uint64_t v = 0;
  if (!in.read_uint(&v, 1, kMetaOrder) || v > 1) return false;
  f->byte_order = static_cast<ByteOrder>(v);
  if (!in.read_uint(&v, 1, kMetaOrder)) return false;
  f->pointer_size = static_cast<std::uint8_t>(v);
  if (!in.read_uint(&v, 4, kMetaOrder)) return false;
  f->fixed_size = static_cast<std::uint32_t>(v);
  if (!get_str(in, &f->arch_name)) return false;
  std::uint64_t nfields = 0;
  if (!in.read_uint(&nfields, 2, kMetaOrder) || nfields > kMaxFields) {
    return false;
  }
  f->fields.resize(static_cast<std::size_t>(nfields));
  for (FieldDesc& fd : f->fields) {
    if (!get_str(in, &fd.name)) return false;
    if (!in.read_uint(&v, 1, kMetaOrder) ||
        v > static_cast<std::uint64_t>(BaseType::kStruct)) {
      return false;
    }
    fd.base = static_cast<BaseType>(v);
    if (!get_str(in, &fd.subformat)) return false;
    if (!in.read_uint(&v, 4, kMetaOrder)) return false;
    fd.elem_size = static_cast<std::uint32_t>(v);
    if (!in.read_uint(&v, 4, kMetaOrder)) return false;
    fd.static_elems = static_cast<std::uint32_t>(v);
    if (!get_str(in, &fd.var_dim_field)) return false;
    if (!in.read_uint(&v, 4, kMetaOrder)) return false;
    fd.offset = static_cast<std::uint32_t>(v);
    if (!in.read_uint(&v, 4, kMetaOrder)) return false;
    fd.slot_size = static_cast<std::uint32_t>(v);
  }
  return true;
}

}  // namespace

std::vector<std::uint8_t> encode_meta(const FormatDesc& f) {
  ByteBuffer out(256);
  encode_all(out, f, /*canonical=*/false);
  return {out.data(), out.data() + out.size()};
}

std::uint64_t hash_meta(const FormatDesc& f, std::uint64_t seed,
                        bool canonical) {
  HashSink out{seed};
  encode_all(out, f, canonical);
  return out.h;
}

Result<FormatDesc> decode_meta(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  std::uint64_t version = 0;
  if (!in.read_uint(&version, 1, kMetaOrder) || version != kMetaVersion) {
    return Status(Errc::kMalformed, "bad meta version");
  }
  FormatDesc f;
  if (!decode_one(in, &f)) {
    return Status(Errc::kMalformed, "truncated format meta");
  }
  std::uint64_t nsubs = 0;
  if (!in.read_uint(&nsubs, 2, kMetaOrder) || nsubs > kMaxFields) {
    return Status(Errc::kMalformed, "bad subformat count");
  }
  f.subformats.resize(static_cast<std::size_t>(nsubs));
  for (FormatDesc& sub : f.subformats) {
    if (!decode_one(in, &sub)) {
      return Status(Errc::kMalformed, "truncated subformat meta");
    }
  }
  try {
    f.validate();
  } catch (const PbioError& e) {
    return Status(Errc::kMalformed, e.what());
  }
  return f;
}

}  // namespace pbio::fmt
