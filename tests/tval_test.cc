// Translation validation: the tval gate must accept every legitimately
// compiled plan (no false rejects — in release a reject silently falls back
// to the interpreter, so these tests assert the report directly) and must
// reject a corpus of adversarially mutated code buffers (no false accepts).
#include "verify/tval/tval.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "arch/layout.h"
#include "value/random.h"
#include "vcode/execmem.h"
#include "vcode/jit_convert.h"
#include "vcode/vcode.h"
#include "verify/tval/decode.h"

namespace pbio {
namespace {

namespace tval = verify::tval;

using arch::CType;
using arch::StructSpec;
using convert::Plan;
using vcode::CompiledConvert;

StructSpec mixed_spec() {
  StructSpec s;
  s.name = "mixed";
  s.fields = {
      {.name = "a", .type = CType::kInt},
      {.name = "x", .type = CType::kDouble},
      {.name = "l", .type = CType::kLong},
      {.name = "f", .type = CType::kFloat, .array_elems = 5},
      {.name = "t", .type = CType::kChar, .array_elems = 6},
      {.name = "u", .type = CType::kUShort},
  };
  return s;
}

void expect_accepted(const Plan& plan, const std::string& context) {
  CompiledConvert cc(plan);
  ASSERT_TRUE(cc.jitted()) << context;
  EXPECT_TRUE(cc.tval_report().ok)
      << context << ": " << cc.tval_report().to_string();
  EXPECT_EQ(cc.tval_report().fault, tval::Fault::kNone) << context;
}

void expect_accepted(const StructSpec& spec, const arch::Abi& src_abi,
                     const arch::Abi& dst_abi, const std::string& context) {
  expect_accepted(convert::compile_plan(arch::layout_format(spec, src_abi),
                                        arch::layout_format(spec, dst_abi)),
                  context);
}

#define REQUIRE_JIT()                                      \
  do {                                                     \
    if (!vcode::jit_supported()) {                         \
      GTEST_SKIP() << "no JIT on this host";               \
    }                                                      \
    if (!vcode::tval_enabled()) {                          \
      GTEST_SKIP() << "built with PBIO_TVAL=OFF";          \
    }                                                      \
  } while (0)

// ---------------------------------------------------------------------------
// Acceptance: tval must accept 100% of legitimately compiled plans.
// ---------------------------------------------------------------------------

TEST(TvalAccept, HeterogeneousAllAbiPairs) {
  REQUIRE_JIT();
  for (const auto* src : arch::all_abis()) {
    for (const auto* dst : arch::all_abis()) {
      expect_accepted(mixed_spec(), *src, *dst, src->name + "->" + dst->name);
    }
  }
}

TEST(TvalAccept, HomogeneousIdentity) {
  REQUIRE_JIT();
  expect_accepted(mixed_spec(), arch::abi_x86_64(), arch::abi_x86_64(),
                  "identity");
}

TEST(TvalAccept, TypeExtension) {
  REQUIRE_JIT();
  // Sender sends narrower numeric types than the receiver expects: the
  // paper's type-extension story, compiled to kCvtNum ops (including the
  // branchy unsigned->double path from a big-endian sender).
  StructSpec send_spec;
  send_spec.name = "v1";
  send_spec.fields = {{.name = "i", .type = CType::kInt},
                      {.name = "s", .type = CType::kShort},
                      {.name = "u", .type = CType::kULongLong},
                      {.name = "f", .type = CType::kFloat}};
  StructSpec recv_spec;
  recv_spec.name = "v1";
  recv_spec.fields = {{.name = "i", .type = CType::kLongLong},
                      {.name = "s", .type = CType::kDouble},
                      {.name = "u", .type = CType::kDouble},
                      {.name = "f", .type = CType::kDouble}};
  for (const auto* src : arch::all_abis()) {
    const auto sf = arch::layout_format(send_spec, *src);
    const auto df = arch::layout_format(recv_spec, arch::abi_x86_64());
    expect_accepted(convert::compile_plan(sf, df), "type-ext from " + src->name);
  }
}

TEST(TvalAccept, VariableLength) {
  REQUIRE_JIT();
  StructSpec s;
  s.name = "msg";
  s.fields = {{.name = "n", .type = CType::kUInt},
              {.name = "name", .type = CType::kString},
              {.name = "vals", .type = CType::kDouble, .var_dim_field = "n"},
              {.name = "tail", .type = CType::kInt}};
  for (const auto* src : arch::all_abis()) {
    expect_accepted(s, *src, arch::abi_x86_64(), "var from " + src->name);
  }
}

TEST(TvalAccept, SubLoopAndNestedLoop) {
  REQUIRE_JIT();
  StructSpec block;
  block.name = "blk";
  block.fields = {{.name = "vals", .type = CType::kDouble, .array_elems = 16},
                  {.name = "tag", .type = CType::kInt}};
  StructSpec top;
  top.name = "grid";
  top.fields = {{.name = "blocks", .array_elems = 10, .subformat = "blk"}};
  top.subs = {block};
  for (const auto* src : arch::all_abis()) {
    expect_accepted(top, *src, arch::abi_x86_64(), "grid from " + src->name);
  }
}

TEST(TvalAccept, KernelCallPath) {
  REQUIRE_JIT();
  // Long top-level array of swapped doubles: compiled to a batch-kernel call.
  StructSpec s;
  s.name = "vec";
  s.fields = {{.name = "vals", .type = CType::kDouble, .array_elems = 64}};
  expect_accepted(s, arch::abi_sparc_v9(), arch::abi_x86_64(), "swap kernel");
}

TEST(TvalAccept, MemmoveAndMemsetPaths) {
  REQUIRE_JIT();
  StructSpec send_spec;
  send_spec.name = "big";
  send_spec.fields = {{.name = "blob", .type = CType::kChar,
                       .array_elems = 4096}};
  StructSpec recv_spec = send_spec;
  recv_spec.fields.push_back(
      {.name = "extra", .type = CType::kDouble, .array_elems = 512});
  expect_accepted(convert::compile_plan(
                      arch::layout_format(send_spec, arch::abi_x86_64()),
                      arch::layout_format(recv_spec, arch::abi_x86_64())),
                  "memmove+memset");
}

TEST(TvalAccept, UnoptimizedPlans) {
  REQUIRE_JIT();
  convert::CompileOptions opts;
  opts.optimize = false;
  const auto sf = arch::layout_format(mixed_spec(), arch::abi_sparc_v8());
  const auto df = arch::layout_format(mixed_spec(), arch::abi_x86_64());
  expect_accepted(convert::compile_plan(sf, df, opts), "unoptimized");
}

TEST(TvalAccept, RandomCorpus) {
  REQUIRE_JIT();
  for (int seed = 0; seed < 10; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 7919 + 3);
    const StructSpec spec = value::random_spec(rng);
    for (const auto* src : arch::all_abis()) {
      for (const auto* dst : arch::all_abis()) {
        expect_accepted(spec, *src, *dst,
                        "seed " + std::to_string(seed) + " " + src->name +
                            "->" + dst->name);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Mutation corpus: every adversarial byte-level mutation must be rejected.
// ---------------------------------------------------------------------------

struct Fixture {
  Plan plan;
  std::unique_ptr<CompiledConvert> cc;
  std::vector<std::uint8_t> bytes;
  tval::Decoded dec;

  tval::Report validate() const {
    return tval::validate(bytes, plan, vcode::make_tval_options(plan));
  }
};

Fixture make_fixture(const StructSpec& spec, const arch::Abi& src_abi,
                     const arch::Abi& dst_abi) {
  Fixture f;
  f.plan = convert::compile_plan(arch::layout_format(spec, src_abi),
                                 arch::layout_format(spec, dst_abi));
  f.cc = std::make_unique<CompiledConvert>(f.plan);
  EXPECT_TRUE(f.cc->jitted());
  EXPECT_TRUE(f.cc->tval_report().ok) << f.cc->tval_report().to_string();
  f.bytes.assign(f.cc->code().begin(), f.cc->code().end());
  f.dec = tval::decode(f.bytes);
  EXPECT_TRUE(f.dec.ok) << f.dec.error;
  return f;
}

Fixture het_fixture() {
  return make_fixture(mixed_spec(), arch::abi_sparc_v8(), arch::abi_x86_64());
}

Fixture loop_fixture() {
  StructSpec point;
  point.name = "pt";
  point.fields = {{.name = "x", .type = CType::kDouble},
                  {.name = "y", .type = CType::kFloat},
                  {.name = "id", .type = CType::kShort}};
  StructSpec top;
  top.name = "cloud";
  top.fields = {{.name = "pts", .array_elems = 100, .subformat = "pt"}};
  top.subs = {point};
  return make_fixture(top, arch::abi_sparc_v9(), arch::abi_x86_64());
}

Fixture memmove_fixture() {
  StructSpec s;
  s.name = "big";
  s.fields = {{.name = "blob", .type = CType::kChar, .array_elems = 4096},
              {.name = "tail", .type = CType::kInt}};
  return make_fixture(s, arch::abi_x86_64(), arch::abi_x86_64());
}

Fixture var_fixture() {
  StructSpec s;
  s.name = "msg";
  s.fields = {{.name = "id", .type = CType::kInt},
              {.name = "text", .type = CType::kString}};
  return make_fixture(s, arch::abi_x86_64(), arch::abi_x86_64());
}

Fixture kernel_fixture() {
  StructSpec s;
  s.name = "vec";
  s.fields = {{.name = "vals", .type = CType::kDouble, .array_elems = 64}};
  return make_fixture(s, arch::abi_sparc_v9(), arch::abi_x86_64());
}

template <typename Pred>
std::size_t find_inst(const tval::Decoded& d, Pred p) {
  for (std::size_t i = 0; i < d.insts.size(); ++i) {
    if (p(d.insts[i])) return i;
  }
  return SIZE_MAX;
}

void put_u32(std::vector<std::uint8_t>& b, std::size_t pos, std::uint32_t v) {
  ASSERT_LE(pos + 4, b.size());
  b[pos] = static_cast<std::uint8_t>(v);
  b[pos + 1] = static_cast<std::uint8_t>(v >> 8);
  b[pos + 2] = static_cast<std::uint8_t>(v >> 16);
  b[pos + 3] = static_cast<std::uint8_t>(v >> 24);
}

#define EXPECT_REJECTED(f)                                        \
  do {                                                            \
    const tval::Report rep_ = (f).validate();                     \
    EXPECT_FALSE(rep_.ok) << "mutation was accepted";             \
    EXPECT_NE(rep_.fault, tval::Fault::kNone);                    \
  } while (0)

TEST(TvalMutation, TruncatedEpilogue) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  f.bytes.pop_back();  // drop the ret
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, TrailingBytesAfterRet) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  f.bytes.push_back(0xC3);
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, WrongFirstPush) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  ASSERT_EQ(f.bytes[0], 0x55);  // push rbp
  f.bytes[0] = 0x50;            // push rax
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kPrologue) << rep.to_string();
}

TEST(TvalMutation, WrongStackAdjustment) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kSubRI && in.reg == tval::Reg::rsp;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  put_u32(f.bytes, in.off + in.len - 4, 16);  // sub rsp, 16
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kPrologue) << rep.to_string();
}

TEST(TvalMutation, SwappedEpiloguePops) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  // pop rbx (0x5B) and pop rbp (0x5D) near the end: swap restore order.
  std::size_t pos_rbx = SIZE_MAX, pos_rbp = SIZE_MAX;
  for (const auto& in : f.dec.insts) {
    if (in.opc != tval::Opc::kPop) continue;
    if (in.reg == tval::Reg::rbx) pos_rbx = in.off;
    if (in.reg == tval::Reg::rbp) pos_rbp = in.off;
  }
  ASSERT_NE(pos_rbx, SIZE_MAX);
  ASSERT_NE(pos_rbp, SIZE_MAX);
  std::swap(f.bytes[pos_rbx], f.bytes[pos_rbp]);
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kEpilogue) << rep.to_string();
}

TEST(TvalMutation, MissingPop) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  // Erase the two bytes of `pop r15` (0x41 0x5F).
  std::size_t pos = SIZE_MAX;
  for (const auto& in : f.dec.insts) {
    if (in.opc == tval::Opc::kPop && in.reg == tval::Reg::r15) pos = in.off;
  }
  ASSERT_NE(pos, SIZE_MAX);
  f.bytes.erase(f.bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                f.bytes.begin() + static_cast<std::ptrdiff_t>(pos) + 2);
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, UnknownOpcodeInBody) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  // First instruction after the 10-instruction prologue.
  ASSERT_GT(f.dec.insts.size(), 10u);
  f.bytes[f.dec.insts[10].off] = 0x90;  // nop: outside the vocabulary
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kDecode) << rep.to_string();
}

TEST(TvalMutation, RetInBody) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  ASSERT_GT(f.dec.insts.size(), 10u);
  f.bytes[f.dec.insts[10].off] = 0xC3;
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, PushInBody) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  ASSERT_GT(f.dec.insts.size(), 10u);
  f.bytes[f.dec.insts[10].off] = 0x50;  // push rax
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, RexXBitSet) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  const std::size_t i = find_inst(f.dec, [&](const tval::Inst& in) {
    return in.opc == tval::Opc::kLoad && in.base == tval::Reg::r12 &&
           f.bytes[in.off] == 0x41;
  });
  ASSERT_NE(i, SIZE_MAX);
  f.bytes[f.dec.insts[i].off] |= 0x02;  // set REX.X
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kDecode) << rep.to_string();
}

TEST(TvalMutation, StoreDisplacementBelowRecord) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kStore && in.base == tval::Reg::r13 &&
           in.disp > 0 && in.disp <= 127;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  f.bytes[in.off + in.len - 1] = 0x80;  // disp8 = -128
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kBounds) << rep.to_string();
}

TEST(TvalMutation, LoadDisplacementPastRecord) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  ASSERT_LT(f.plan.src_fixed_size, 120u);
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kLoad && in.base == tval::Reg::r12 &&
           in.disp > 0 && in.disp <= 127;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  f.bytes[in.off + in.len - 1] = 0x7F;  // disp8 = 127
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kBounds) << rep.to_string();
}

TEST(TvalMutation, WidenedLoadExceedsFootprint) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  const std::size_t i = find_inst(f.dec, [&](const tval::Inst& in) {
    return in.opc == tval::Opc::kLoad && in.base == tval::Reg::r12 &&
           in.width == 4 && !in.sign && f.bytes[in.off] == 0x41;
  });
  ASSERT_NE(i, SIZE_MAX);
  f.bytes[f.dec.insts[i].off] |= 0x08;  // set REX.W: 4-byte load becomes 8
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kBounds) << rep.to_string();
}

TEST(TvalMutation, ClobberPinnedSrcBase) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  const std::size_t i = find_inst(f.dec, [&](const tval::Inst& in) {
    return in.opc == tval::Opc::kLoad && in.base == tval::Reg::r12 &&
           in.reg == tval::Reg::rax && f.bytes[in.off] == 0x41 &&
           f.bytes[in.off + 1] == 0x8B;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  f.bytes[in.off] |= 0x04;      // REX.R
  f.bytes[in.off + 2] |= 0x20;  // modrm reg 0 -> 4: destination becomes r12
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kConvention) << rep.to_string();
}

TEST(TvalMutation, NonCanonicalDisp32) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  const std::size_t i = find_inst(f.dec, [&](const tval::Inst& in) {
    return in.opc == tval::Opc::kStore && in.base == tval::Reg::r13 &&
           in.width == 4 && f.bytes[in.off] == 0x41 &&
           f.bytes[in.off + 1] == 0x89;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  // mod 01 -> 10: the disp8 plus the next instruction's bytes become a
  // garbage disp32 and the stream shifts under the decoder.
  f.bytes[in.off + 2] = static_cast<std::uint8_t>(
      (f.bytes[in.off + 2] & 0x3F) | 0x80);
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, LoopCountOffByOne) {
  REQUIRE_JIT();
  Fixture f = loop_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kMovRI32 && in.reg == tval::Reg::r15;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  put_u32(f.bytes, in.off + in.len - 4,
          static_cast<std::uint32_t>(in.imm) + 1);
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kLoop) << rep.to_string();
}

TEST(TvalMutation, LoopCountZero) {
  REQUIRE_JIT();
  Fixture f = loop_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kMovRI32 && in.reg == tval::Reg::r15;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  put_u32(f.bytes, in.off + in.len - 4, 0);
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kLoop) << rep.to_string();
}

TEST(TvalMutation, LoopStrideMismatch) {
  REQUIRE_JIT();
  Fixture f = loop_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kAddRI && in.reg == tval::Reg::rbx;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  put_u32(f.bytes, in.off + in.len - 4,
          static_cast<std::uint32_t>(in.imm) + 1);
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kLoop) << rep.to_string();
}

TEST(TvalMutation, BackedgeIntoLoopInterior) {
  REQUIRE_JIT();
  Fixture f = loop_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kJcc && in.rel < 0;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  put_u32(f.bytes, in.off + in.len - 4, static_cast<std::uint32_t>(in.rel + 1));
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, BackedgeConditionFlipped) {
  REQUIRE_JIT();
  Fixture f = loop_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kJcc && in.rel < 0;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  ASSERT_EQ(f.bytes[in.off + 1], 0x85);  // jne
  f.bytes[in.off + 1] = 0x84;            // je
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, LoopCursorRegisterSwapped) {
  REQUIRE_JIT();
  Fixture f = loop_fixture();
  // Preheader `lea rbx, [r12+off]` -> `lea rsi, ...`: breaks the register
  // convention the loop recognizer requires.
  const std::size_t i = find_inst(f.dec, [&](const tval::Inst& in) {
    return in.opc == tval::Opc::kLea && in.reg == tval::Reg::rbx &&
           in.base == tval::Reg::r12 && f.bytes[in.off] == 0x49;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  f.bytes[in.off + 2] = static_cast<std::uint8_t>(
      (f.bytes[in.off + 2] & ~0x38) | 0x30);  // modrm reg rbx -> rsi
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, StoreThroughSourceCursor) {
  REQUIRE_JIT();
  Fixture f = loop_fixture();
  // Store [rbp+disp] (dst cursor) retargeted to [rbx+disp] (src cursor):
  // a write into the wire record.
  const std::size_t i = find_inst(f.dec, [&](const tval::Inst& in) {
    return in.opc == tval::Opc::kStore && in.base == tval::Reg::rbp &&
           in.disp > 0 && in.width == 4 && f.bytes[in.off] == 0x89;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  f.bytes[in.off + 1] = static_cast<std::uint8_t>(
      (f.bytes[in.off + 1] & ~0x07) | 0x03);  // modrm rm rbp -> rbx
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kBounds) << rep.to_string();
}

TEST(TvalMutation, RetargetedCallAddress) {
  REQUIRE_JIT();
  Fixture f = memmove_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kMovRI64 && in.reg == tval::Reg::rax;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  f.bytes[in.off + in.len - 8] += 1;  // low byte of the imm64 target
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kCall) << rep.to_string();
}

TEST(TvalMutation, CallThroughWrongRegister) {
  REQUIRE_JIT();
  Fixture f = memmove_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kCallReg && in.reg == tval::Reg::rax;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  ASSERT_EQ(f.bytes[in.off + in.len - 1], 0xD0);  // call rax
  f.bytes[in.off + in.len - 1] = 0xD1;            // call rcx
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, MemmoveLengthInflated) {
  REQUIRE_JIT();
  Fixture f = memmove_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return (in.opc == tval::Opc::kMovRI32 || in.opc == tval::Opc::kMovRI64) &&
           in.reg == tval::Reg::rdx && in.imm > 64;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  put_u32(f.bytes, in.off + in.len - (in.opc == tval::Opc::kMovRI32 ? 4 : 8),
          static_cast<std::uint32_t>(in.imm) + 0x10000);
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kCall) << rep.to_string();
}

TEST(TvalMutation, KernelCountInflated) {
  REQUIRE_JIT();
  Fixture f = kernel_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kMovRI32 && in.reg == tval::Reg::rdx;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  put_u32(f.bytes, in.off + in.len - 4,
          static_cast<std::uint32_t>(in.imm) + 1);
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  // The inflated count makes the call's implied record read escape bounds.
  EXPECT_TRUE(rep.fault == tval::Fault::kCall ||
              rep.fault == tval::Fault::kBounds)
      << rep.to_string();
}

TEST(TvalMutation, VarOpIndexOutOfRange) {
  REQUIRE_JIT();
  Fixture f = var_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kMovRI32 && in.reg == tval::Reg::rsi;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  put_u32(f.bytes, in.off + in.len - 4, 0x7FFF);
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kCall) << rep.to_string();
}

TEST(TvalMutation, VarOpIndexNamesFixedOp) {
  REQUIRE_JIT();
  Fixture f = var_fixture();
  // Find the fixed (non-variable) op index to smuggle in.
  std::size_t fixed_idx = SIZE_MAX;
  for (std::size_t k = 0; k < f.plan.ops.size(); ++k) {
    if (f.plan.ops[k].code != convert::OpCode::kString &&
        f.plan.ops[k].code != convert::OpCode::kVarArray) {
      fixed_idx = k;
      break;
    }
  }
  ASSERT_NE(fixed_idx, SIZE_MAX);
  const std::size_t i = find_inst(f.dec, [&](const tval::Inst& in) {
    return in.opc == tval::Opc::kMovRI32 && in.reg == tval::Reg::rsi &&
           in.imm != fixed_idx;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  put_u32(f.bytes, in.off + in.len - 4, static_cast<std::uint32_t>(fixed_idx));
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kCall) << rep.to_string();
}

TEST(TvalMutation, ErrorCheckRemoved) {
  REQUIRE_JIT();
  Fixture f = var_fixture();
  // `test eax, eax` before the jne-to-epilogue becomes `xor eax, eax`.
  const std::size_t i = find_inst(f.dec, [&](const tval::Inst& in) {
    return in.opc == tval::Opc::kTestRR32 && in.base == tval::Reg::rax &&
           in.reg == tval::Reg::rax && f.bytes[in.off] == 0x85;
  });
  ASSERT_NE(i, SIZE_MAX);
  f.bytes[f.dec.insts[i].off] = 0x31;
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, ReturnValueNotProvenZero) {
  REQUIRE_JIT();
  // The `xor eax, eax` of ret_ok becomes `test eax, eax`: eax is no longer
  // provably 0 on the jmp to the epilogue. (The het fixture, not the var
  // one: after a jne-to-epilogue fallthrough eax is already proven 0, so
  // there the same mutation is semantically harmless and is accepted.)
  Fixture f = het_fixture();
  std::size_t pos = SIZE_MAX;
  for (std::size_t k = 0; k + 1 < f.dec.insts.size(); ++k) {
    const auto& a = f.dec.insts[k];
    const auto& b = f.dec.insts[k + 1];
    if (a.opc == tval::Opc::kXorRR32 && a.base == tval::Reg::rax &&
        a.reg == tval::Reg::rax && b.opc == tval::Opc::kJmp &&
        f.bytes[a.off] == 0x31) {
      pos = a.off;
      break;
    }
  }
  ASSERT_NE(pos, SIZE_MAX);
  f.bytes[pos] = 0x85;
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, ForwardBranchIntoLoopBody) {
  REQUIRE_JIT();
  Fixture f = var_fixture();
  // Retarget the jne-to-epilogue to the next instruction + 1 byte: a branch
  // to a non-boundary offset.
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kJcc && in.rel > 0;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  put_u32(f.bytes, in.off + in.len - 4, static_cast<std::uint32_t>(in.rel - 1));
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, CursorWidenedPastEmitterNesting) {
  REQUIRE_JIT();
  // Hand-built code with the plan's own loop shapes: a cursor copied out
  // of one loop seeds the next loop's cursor, so the nested loop inside it
  // would widen a value a third time. The emitter never does this; tval
  // must refuse it rather than track an unbounded number of dimensions.
  StructSpec pt;
  pt.name = "pt";
  pt.fields = {{.name = "v", .type = CType::kDouble, .array_elems = 8}};
  StructSpec top;
  top.name = "grid";
  top.fields = {{.name = "pts", .array_elems = 100, .subformat = "pt"}};
  top.subs = {pt};
  const Plan plan =
      convert::compile_plan(arch::layout_format(top, arch::abi_sparc_v9()),
                            arch::layout_format(top, arch::abi_x86_64()));
  ASSERT_EQ(plan.ops.size(), 1u);
  ASSERT_EQ(plan.ops[0].code, convert::OpCode::kSubLoop);

  using vcode::Gp;
  using vcode::Regs;
  vcode::Builder b;
  b.prologue();
  // Loop A: copy the widened source cursor into rcx.
  b.counted_loop(100, 0, 0, 64, 64, [&] { b.mov(Gp::rcx, Regs::cur_src); });
  // Loop B starts its source cursor from that copy; loop C nests in it.
  vcode::X64Emitter& e = b.raw();
  e.lea(Gp::rbx, Gp::rcx, 0);
  e.lea(Gp::rbp, Gp::r13, 0);
  e.mov_ri32(Gp::r15, 100);
  vcode::Label loop_b;
  e.bind(loop_b);
  e.lea(Gp::r8, Gp::rbx, 0);
  e.lea(Gp::r9, Gp::rbp, 0);
  e.mov_ri32(Gp::rdi, 8);
  vcode::Label loop_c;
  e.bind(loop_c);
  e.load_zx(Gp::rax, Gp::r8, 0, 8);
  e.bswap64(Gp::rax);
  e.store(Gp::r9, 0, Gp::rax, 8);
  e.add_ri(Gp::r8, 8);
  e.add_ri(Gp::r9, 8);
  e.dec32(Gp::rdi);
  e.jcc(vcode::Cond::ne, loop_c);
  e.add_ri(Gp::rbx, 64);
  e.add_ri(Gp::rbp, 64);
  e.dec32(Gp::r15);
  e.jcc(vcode::Cond::ne, loop_b);
  b.ret_ok();
  b.finish();

  const tval::Report rep =
      tval::validate(b.code(), plan, vcode::make_tval_options(plan));
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kLoop) << rep.to_string();
  EXPECT_NE(rep.message.find("widened"), std::string::npos)
      << rep.to_string();
}

TEST(TvalMutation, EveryPrologueByteMatters) {
  REQUIRE_JIT();
  // Flip each byte of the prologue in turn; all must be rejected (the
  // prologue is an exact shape).
  Fixture f = het_fixture();
  const std::size_t prologue_end = f.dec.insts[10].off;
  for (std::size_t pos = 0; pos < prologue_end; ++pos) {
    Fixture g;
    g.plan = f.plan;
    g.bytes = f.bytes;
    g.bytes[pos] ^= 0xFF;
    const tval::Report rep =
        tval::validate(g.bytes, g.plan, vcode::make_tval_options(g.plan));
    EXPECT_FALSE(rep.ok) << "byte " << pos << " flip accepted";
  }
}

TEST(TvalMutation, RandomByteFlipFuzz) {
  REQUIRE_JIT();
  // Fuzz robustness: the validator must return a verdict (never crash or
  // hang) for arbitrary single-bit corruptions. A rare flip can be accepted
  // legitimately — e.g. a store displacement nudged to another offset still
  // inside the plan's write footprint is different-but-safe, and safety is
  // the property tval proves — but flips must overwhelmingly be rejected,
  // and opcode-level corruption always is.
  Fixture f = loop_fixture();
  const auto opts = vcode::make_tval_options(f.plan);
  std::mt19937_64 rng(2024);
  int rejected = 0;
  const int kIters = 300;
  for (int iter = 0; iter < kIters; ++iter) {
    const std::size_t pos = rng() % f.bytes.size();
    const std::uint8_t flip = static_cast<std::uint8_t>(1u << (rng() % 8));
    std::vector<std::uint8_t> mutated = f.bytes;
    mutated[pos] ^= flip;
    if (!tval::validate(mutated, f.plan, opts).ok) ++rejected;
  }
  EXPECT_GT(rejected, kIters * 3 / 4) << "only " << rejected << "/" << kIters
                                      << " corruptions rejected";
}

}  // namespace
}  // namespace pbio
