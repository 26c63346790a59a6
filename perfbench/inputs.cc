#include "inputs.h"

#include <cstring>
#include <string>

#include "value/materialize.h"
#include "value/random.h"

namespace perfbench {

using pbio::arch::CType;

pbio::arch::StructSpec scalar_spec(std::uint32_t nfields) {
  pbio::arch::StructSpec spec;
  spec.name = "scalars" + std::to_string(nfields);
  constexpr CType kTypes[] = {CType::kInt, CType::kDouble, CType::kFloat,
                              CType::kShort, CType::kLongLong};
  for (std::uint32_t i = 0; i < nfields; ++i) {
    spec.fields.push_back({.name = "s" + std::to_string(i), .type = kTypes[i % 5]});
  }
  return spec;
}

pbio::arch::StructSpec small_spec() {
  pbio::arch::StructSpec spec;
  spec.name = "small88";
  spec.fields = {
      {.name = "seq", .type = CType::kLongLong},
      {.name = "ids", .type = CType::kInt, .array_elems = 4},
      {.name = "vals", .type = CType::kDouble, .array_elems = 8},
  };
  return spec;
}

namespace {

void mark_fields(const pbio::fmt::FormatDesc& root, const pbio::fmt::FormatDesc& f,
                 std::size_t base, std::vector<std::uint8_t>& mask) {
  for (const pbio::fmt::FieldDesc& fd : f.fields) {
    for (std::uint32_t i = 0; i < fd.static_elems; ++i) {
      const std::size_t at = base + fd.offset + std::size_t{i} * fd.elem_size;
      const pbio::fmt::FormatDesc* sub =
          fd.is_struct() ? root.find_subformat(fd.subformat) : nullptr;
      if (sub != nullptr) {
        mark_fields(root, *sub, at, mask);
      } else {
        std::fill_n(mask.begin() + static_cast<std::ptrdiff_t>(at), fd.elem_size, 1);
      }
    }
  }
}

}  // namespace

bool matches(const std::uint8_t* got, const std::vector<std::uint8_t>& want,
             const std::vector<std::uint8_t>& mask) {
  if (std::memcmp(got, want.data(), want.size()) == 0) return true;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (mask[i] != 0 && got[i] != want[i]) return false;
  }
  return true;
}

PairInputs make_pair(const pbio::arch::StructSpec& spec,
                     const pbio::arch::Abi& wire_abi,
                     const pbio::arch::Abi& native_abi, std::size_t ntemplates,
                     std::mt19937_64& rng) {
  PairInputs p;
  p.wire = pbio::arch::layout_format(spec, wire_abi);
  p.native = pbio::arch::layout_format(spec, native_abi);
  for (std::size_t i = 0; i < ntemplates; ++i) {
    const pbio::value::Record rec = pbio::value::random_record(spec, rng);
    p.templates.push_back({pbio::value::materialize(p.wire, rec),
                           pbio::value::materialize(p.native, rec)});
  }
  p.mask.assign(p.native.fixed_size, 0);
  mark_fields(p.native, p.native, 0, p.mask);
  return p;
}

void plant_fault(std::vector<std::uint8_t>& expected, const std::vector<std::uint8_t>* mask) {
  std::size_t at = expected.size() / 2;
  while (mask != nullptr && (*mask)[at] == 0) at = (at + 1) % expected.size();
  expected[at] ^= 0x5A;
}

}  // namespace perfbench
