// Golden format ids: FormatDesc::fingerprint() is the wire format id that
// peers exchange, and fmt::canonical_hash() keys the conversion-artifact
// cache. Both must stay bit-identical across refactors of how they are
// computed (streaming, lookup-first registration), so their values for a
// few fixed formats are pinned here. A change to any of these constants is
// a wire-protocol change, not a refactor.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "arch/abi.h"
#include "arch/layout.h"
#include "bench_support/workload.h"
#include "fmt/format.h"

namespace pbio {
namespace {

struct Golden {
  std::uint64_t fingerprint;
  std::uint64_t canonical;
};

void expect_golden(const fmt::FormatDesc& f, Golden want) {
  f.validate();
  EXPECT_EQ(f.fingerprint(), want.fingerprint)
      << f.name << ": fingerprint 0x" << std::hex << f.fingerprint();
  EXPECT_EQ(fmt::canonical_hash(f), want.canonical)
      << f.name << ": canonical_hash 0x" << std::hex << fmt::canonical_hash(f);
}

/// fig4's scalar-heavy record: 256 mixed int/double/float/short/long long.
arch::StructSpec scalar256() {
  arch::StructSpec spec;
  spec.name = "scalars256";
  constexpr arch::CType kTypes[] = {arch::CType::kInt, arch::CType::kDouble,
                                    arch::CType::kFloat, arch::CType::kShort,
                                    arch::CType::kLongLong};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    spec.fields.push_back({.name = std::move(name), .type = kTypes[i % 5]});
  }
  return spec;
}

/// Nested subformats: a struct array and a scalar struct, declared out of
/// name order so canonical hashing has subformats to sort.
arch::StructSpec nested() {
  arch::StructSpec vec3{"vec3",
                        {{.name = "x", .type = arch::CType::kDouble},
                         {.name = "y", .type = arch::CType::kDouble},
                         {.name = "z", .type = arch::CType::kDouble}},
                        {}};
  arch::StructSpec tag{"tag",
                       {{.name = "code", .type = arch::CType::kShort},
                        {.name = "weight", .type = arch::CType::kFloat}},
                       {}};
  arch::StructSpec spec;
  spec.name = "particle";
  spec.fields = {{.name = "id", .type = arch::CType::kLong},
                 {.name = "pos", .type = arch::CType::kChar,
                  .array_elems = 4, .subformat = "vec3"},
                 {.name = "label", .type = arch::CType::kChar,
                  .subformat = "tag"},
                 {.name = "mass", .type = arch::CType::kFloat}};
  spec.subs = {vec3, tag};
  return spec;
}

/// Variable-length fields: a string and a variable array sized by `n`.
arch::StructSpec varlen() {
  arch::StructSpec spec;
  spec.name = "trace";
  spec.fields = {{.name = "n", .type = arch::CType::kInt},
                 {.name = "name", .type = arch::CType::kString},
                 {.name = "samples", .type = arch::CType::kDouble,
                  .var_dim_field = "n"},
                 {.name = "flags", .type = arch::CType::kUShort,
                  .array_elems = 3}};
  return spec;
}

TEST(GoldenId, Fig3FemRecord) {
  const arch::StructSpec spec = bench::mech_spec(bench::Size::k1KB);
  expect_golden(arch::layout_format(spec, arch::abi_sparc_v8()),
                {0xb529ad2acdf17485ull, 0xa0e4890200b4ca62ull});
  expect_golden(arch::layout_format(spec, arch::abi_x86_64()),
                {0x19aed7fe83f68c5bull, 0x34123cd53b3b2f8dull});
}

TEST(GoldenId, Fig4Scalar256) {
  const arch::StructSpec spec = scalar256();
  expect_golden(arch::layout_format(spec, arch::abi_x86()),
                {0x5310e2e4b423d4c0ull, 0x1f2b14ec0e3f0868ull});
  expect_golden(arch::layout_format(spec, arch::abi_sparc_v8()),
                {0x300b8001eefb25c0ull, 0x8ef3a5fc8b9ed8edull});
}

TEST(GoldenId, NestedSubformats) {
  const fmt::FormatDesc f = arch::layout_format(nested(), arch::abi_sparc_v9());
  ASSERT_EQ(f.subformats.size(), 2u);
  expect_golden(f, {0x7f46eaaf04b1b423ull, 0x0dfd7bf638c20dffull});
}

TEST(GoldenId, VariableArrays) {
  const fmt::FormatDesc f = arch::layout_format(varlen(), arch::abi_x86_64());
  ASSERT_FALSE(f.is_fixed_layout());
  expect_golden(f, {0x17ba0400990695d2ull, 0xf86fd79b4ea3889aull});
}

TEST(GoldenId, CanonicalHashIgnoresPresentation) {
  // The canonical key drops arch_name and declaration order; the wire id
  // does not.
  fmt::FormatDesc f = arch::layout_format(nested(), arch::abi_sparc_v9());
  fmt::FormatDesc g = f;
  g.arch_name = "elsewhere";
  std::swap(g.fields[0], g.fields[3]);
  std::swap(g.subformats[0], g.subformats[1]);
  EXPECT_NE(f.fingerprint(), g.fingerprint());
  EXPECT_EQ(fmt::canonical_hash(f), fmt::canonical_hash(g));
}

}  // namespace
}  // namespace pbio
