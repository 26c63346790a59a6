// Seeded inputs and the output oracle.
//
// Every record the benchmark sends is a value::random_record of a struct
// spec; its wire image and the image the receiver must end up with both
// come from the layout engine (value::materialize under the sender's and
// the receiver's ABI), computed before any timing starts. Decoded output is
// compared to the expected image byte for byte over every field byte;
// padding is not part of a record's value (a converter may legitimately
// leave wire bytes there), so it is masked out.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "arch/abi.h"
#include "arch/layout.h"
#include "fmt/format.h"

namespace perfbench {

struct Template {
  std::vector<std::uint8_t> wire;      // what the sender transmits
  std::vector<std::uint8_t> expected;  // receiver-native image it must decode to
};

/// One wire/native format pair and seeded record templates for it.
struct PairInputs {
  pbio::fmt::FormatDesc wire;
  pbio::fmt::FormatDesc native;
  std::vector<Template> templates;
  std::vector<std::uint8_t> mask;  // 1 for each byte of a native field
};

/// True when `got` equals `want` on every byte `mask` marks.
bool matches(const std::uint8_t* got, const std::vector<std::uint8_t>& want,
             const std::vector<std::uint8_t>& mask);

/// fig4's scalar-heavy record: `nfields` mixed int/double/float/short/
/// long long fields (256 fields = 1640 bytes on sparc_v8 and x86-64).
pbio::arch::StructSpec scalar_spec(std::uint32_t nfields);

/// stream_homo's small record: 88 bytes on every modelled ABI.
pbio::arch::StructSpec small_spec();

/// Lay `spec` out for both ABIs and draw `ntemplates` records from `rng`.
PairInputs make_pair(const pbio::arch::StructSpec& spec,
                     const pbio::arch::Abi& wire_abi,
                     const pbio::arch::Abi& native_abi, std::size_t ntemplates,
                     std::mt19937_64& rng);

/// The planted fault: flip one byte of an expected image (a field byte when
/// a mask is given), so every output checked against it must be reported
/// as a mismatch.
void plant_fault(std::vector<std::uint8_t>& expected,
                 const std::vector<std::uint8_t>* mask = nullptr);

}  // namespace perfbench
