// Fleet-scale conversion-artifact cache: canonical keying, bloom-filter
// negative cache, single-flight stampede collapse (with consistent
// hit/miss accounting), cross-context artifact sharing, and the artifact's
// tiering (interpreter first, JIT on its kPromoteRuns-th DCG run).
#include "cache/artifact_cache.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "arch/layout.h"
#include "convert/interp.h"
#include "fmt/format.h"
#include "pbio/context.h"
#include "value/materialize.h"
#include "value/random.h"
#include "value/read.h"
#include "vcode/execmem.h"
#include "vcode/jit_convert.h"

namespace pbio {
namespace {

using arch::CType;
using arch::StructSpec;
using cache::Artifact;
using cache::ArtifactCache;
using cache::PairKey;
using value::Record;
using value::Value;

StructSpec sample_spec() {
  StructSpec s;
  s.name = "sample";
  // The 32-element array clears kernels::kMinCount, so a byte-swapping
  // conversion emits real kernel *calls*, not just inline code.
  s.fields = {
      {.name = "seq", .type = CType::kInt},
      {.name = "a", .type = CType::kDouble},
      {.name = "samples", .type = CType::kDouble, .array_elems = 32},
      {.name = "tag", .type = CType::kUShort},
  };
  return s;
}

Record sample_record() {
  Record r;
  r.set("seq", Value(42));
  r.set("a", Value(2.5));
  Value::List samples;
  for (int i = 0; i < 32; ++i) samples.push_back(Value(0.5 * i - 3.25));
  r.set("samples", Value(std::move(samples)));
  r.set("tag", Value(std::uint64_t{7}));
  return r;
}

/// Big-endian wire + host-native pair: the conversion needs byte-swap
/// kernels, so generated code carries real call sites.
fmt::FormatDesc wire_desc() {
  return arch::layout_format(sample_spec(), arch::abi_sparc_v8());
}
fmt::FormatDesc native_desc() {
  return arch::layout_format(sample_spec(), arch::abi_x86_64());
}

/// Run `conv` over a materialized sample record and check the values
/// survive — the "it actually executes correctly" stamp on every path.
void expect_converts(const Context& /*ctx*/, const Conversion& conv,
                     const fmt::FormatDesc& wire,
                     const fmt::FormatDesc& native) {
  const auto bytes = value::materialize(wire, sample_record());
  std::vector<std::uint8_t> out(native.fixed_size, 0);
  convert::ExecInput in;
  in.src = bytes.data();
  in.src_size = bytes.size();
  in.dst = out.data();
  in.dst_size = out.size();
  ASSERT_TRUE(conv.run(in, Engine::kDcg).is_ok());
  auto back = value::read_record(native, out);
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(value::equivalent(back.value(), sample_record()))
      << Value(back.value()).to_string();
}

/// The sample record's wire bytes, and one run of `run` over them.
const std::vector<std::uint8_t>& sample_wire() {
  static const std::vector<std::uint8_t> bytes =
      value::materialize(wire_desc(), sample_record());
  return bytes;
}

template <typename Run>
std::vector<std::uint8_t> convert_sample(Run run) {
  std::vector<std::uint8_t> out(native_desc().fixed_size, 0);
  convert::ExecInput in;
  in.src = sample_wire().data();
  in.src_size = sample_wire().size();
  in.dst = out.data();
  in.dst_size = out.size();
  EXPECT_TRUE(run(in).is_ok());
  return out;
}

std::vector<std::uint8_t> run_sample(const Conversion& conv, Engine engine) {
  return convert_sample(
      [&](const convert::ExecInput& in) { return conv.run(in, engine); });
}

/// A fresh conversion of the sample pair from `ctx`.
std::shared_ptr<const Conversion> sample_conversion(Context& ctx) {
  auto r = ctx.try_conversion(ctx.register_format(wire_desc()),
                              ctx.register_format(native_desc()));
  EXPECT_TRUE(r.is_ok());
  return r.is_ok() ? std::move(r).take() : nullptr;
}

// ---------------------------------------------------------------- keying

TEST(CanonicalHash, IgnoresPresentationOnlyDifferences) {
  fmt::FormatDesc a = wire_desc();
  fmt::FormatDesc b = a;
  b.arch_name = "some-other-machine";
  std::reverse(b.fields.begin(), b.fields.end());
  EXPECT_EQ(fmt::canonical_hash(a), fmt::canonical_hash(b));
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(CanonicalHash, DiffersOnStructuralChange) {
  fmt::FormatDesc a = wire_desc();
  fmt::FormatDesc b = a;
  b.fields[0].offset += 2;
  EXPECT_NE(fmt::canonical_hash(a), fmt::canonical_hash(b));
  fmt::FormatDesc c = wire_desc();
  c.fields[0].elem_size = 8;
  EXPECT_NE(fmt::canonical_hash(a), fmt::canonical_hash(c));
}

TEST(CanonicalHash, StructurallyEqualFormatsShareOneArtifact) {
  ArtifactCache cache;
  fmt::FormatDesc wire = wire_desc();
  fmt::FormatDesc renamed = wire;
  renamed.arch_name = "elsewhere";
  const fmt::FormatDesc native = native_desc();
  const PairKey key{fmt::canonical_hash(wire), fmt::canonical_hash(native)};
  const PairKey key2{fmt::canonical_hash(renamed),
                     fmt::canonical_hash(native)};
  ASSERT_EQ(key.wire, key2.wire);
  auto first = cache.get_or_build(wire, native, key);
  auto second = cache.get_or_build(renamed, native, key2);
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(first.value().artifact.get(), second.value().artifact.get());
  EXPECT_EQ(cache.stats().compiles, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

// ------------------------------------------------------- negative cache

TEST(NegativeCache, UnknownIdRejectedWithoutRegistryLookup) {
  Context ctx;
  const auto native = ctx.register_format(native_desc());
  auto r = ctx.try_conversion(0xdeadbeefdeadbeefull, native);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Errc::kUnknownFormat);
  EXPECT_EQ(ctx.stats().negative_cache_hits, 1u);
  EXPECT_EQ(ctx.stats().shared_cache_misses, 0u);
}

TEST(NegativeCache, RegisteredIdsPassTheFilter) {
  Context ctx;
  const auto wire = ctx.register_format(wire_desc());
  const auto native = ctx.register_format(native_desc());
  ASSERT_TRUE(ctx.try_conversion(wire, native).is_ok());
  EXPECT_EQ(ctx.stats().negative_cache_hits, 0u);
}

// ------------------------------------------------------------- stampede

TEST(Stampede, ColdPairCompilesExactlyOnceAcrossThreads) {
  Context ctx;
  const auto wire = ctx.register_format(wire_desc());
  const auto native = ctx.register_format(native_desc());
  constexpr int kThreads = 16;
  std::vector<std::shared_ptr<const Conversion>> got(kThreads);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) {
      }
      auto r = ctx.try_conversion(wire, native);
      ASSERT_TRUE(r.is_ok());
      got[static_cast<std::size_t>(t)] = std::move(r).take();
    });
  }
  while (ready.load() != kThreads) {
  }
  go.store(true);
  for (auto& th : threads) th.join();

  // Single-flight: exactly one compile no matter how hard the stampede.
  EXPECT_EQ(ctx.stats().conversions_compiled, 1u);
  const ArtifactCache::Stats cs = ctx.artifact_cache().stats();
  EXPECT_EQ(cs.compiles, 1u);
  // Every caller that got past the context's L1 map counts exactly one
  // cache hit or one miss, every miss led or waited on the flight, and the
  // context saw the same hits the cache did (a caller whose lock-free probe
  // missed but whose re-probe under the shard lock hit is a hit on both
  // sides).
  EXPECT_EQ(cs.hits + cs.misses + ctx.stats().conversion_cache_hits,
            static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(cs.misses, cs.compiles + cs.single_flight_waits);
  EXPECT_EQ(ctx.stats().shared_cache_hits, cs.hits);
  // Every thread received literally the same sealed artifact.
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)]->artifact().get(),
              got[0]->artifact().get());
  }
  expect_converts(ctx, *got[0], wire_desc(), native_desc());
}

// -------------------------------------------------------------- sharing

TEST(SharedCache, SecondContextCompilesNothing) {
  auto shared = std::make_shared<ArtifactCache>();
  Context a(shared);
  Context b(shared);
  const auto wa = a.register_format(wire_desc());
  const auto na = a.register_format(native_desc());
  const auto wb = b.register_format(wire_desc());
  const auto nb = b.register_format(native_desc());

  auto ca = a.try_conversion(wa, na);
  ASSERT_TRUE(ca.is_ok());
  auto cb = b.try_conversion(wb, nb);
  ASSERT_TRUE(cb.is_ok());

  EXPECT_EQ(a.stats().conversions_compiled, 1u);
  EXPECT_EQ(b.stats().conversions_compiled, 0u);
  EXPECT_EQ(b.stats().shared_cache_hits, 1u);
  EXPECT_EQ(shared->stats().compiles, 1u);
  EXPECT_EQ(ca.value()->artifact().get(), cb.value()->artifact().get());
}

TEST(SharedCache, PrivateByDefault) {
  Context a;
  Context b;
  const auto wa = a.register_format(wire_desc());
  const auto na = a.register_format(native_desc());
  const auto wb = b.register_format(wire_desc());
  const auto nb = b.register_format(native_desc());
  ASSERT_TRUE(a.try_conversion(wa, na).is_ok());
  ASSERT_TRUE(b.try_conversion(wb, nb).is_ok());
  EXPECT_EQ(a.stats().conversions_compiled, 1u);
  EXPECT_EQ(b.stats().conversions_compiled, 1u);
}

TEST(SharedCache, L1HitDoesNotTouchSharedCache) {
  Context ctx;
  const auto wire = ctx.register_format(wire_desc());
  const auto native = ctx.register_format(native_desc());
  ASSERT_TRUE(ctx.try_conversion(wire, native).is_ok());
  ASSERT_TRUE(ctx.try_conversion(wire, native).is_ok());
  EXPECT_EQ(ctx.stats().conversion_cache_hits, 1u);
  EXPECT_EQ(ctx.artifact_cache().stats().hits, 0u);  // L1 absorbed it
}

// -------------------------------------------------------------- tiering

TEST(Tiering, ColdConversionInterpretsBitIdenticallyToRunPlan) {
  Context ctx;
  const auto conv = sample_conversion(ctx);
  ASSERT_NE(conv, nullptr);
  EXPECT_FALSE(conv->jitted());
  EXPECT_EQ(conv->artifact()->compiled(), nullptr);
  const auto reference = convert_sample([&](const convert::ExecInput& in) {
    return convert::run_plan(conv->plan(), in);
  });
  EXPECT_EQ(run_sample(*conv, Engine::kDcg), reference);
  EXPECT_FALSE(conv->jitted());
  const ArtifactCache::Stats cs = ctx.artifact_cache().stats();
  EXPECT_EQ(cs.compiles, 1u);
  EXPECT_EQ(cs.promotions, 0u);
  EXPECT_EQ(cs.jit_code_bytes, 0u);
}

TEST(Tiering, PromotesOnTheKthDcgRunWithIdenticalOutput) {
  Context ctx;
  const auto conv = sample_conversion(ctx);
  ASSERT_NE(conv, nullptr);
  const auto reference = run_sample(*conv, Engine::kInterpreted);
  for (std::uint64_t i = 1; i < Artifact::kPromoteRuns; ++i) {
    ASSERT_EQ(run_sample(*conv, Engine::kDcg), reference) << "run " << i;
    ASSERT_EQ(conv->artifact()->compiled(), nullptr) << "run " << i;
  }
  EXPECT_EQ(ctx.artifact_cache().stats().promotions, 0u);

  EXPECT_EQ(run_sample(*conv, Engine::kDcg), reference);  // run kPromoteRuns
  const vcode::CompiledConvert* code = conv->artifact()->compiled();
  ASSERT_NE(code, nullptr);
  EXPECT_EQ(conv->jitted(), vcode::jit_supported());
  if (conv->jitted() && vcode::tval_enabled()) {
    EXPECT_TRUE(code->tval_report().ok) << code->tval_report().to_string();
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(run_sample(*conv, Engine::kDcg), reference);
  }
  EXPECT_EQ(conv->artifact()->compiled(), code);
  const ArtifactCache::Stats cs = ctx.artifact_cache().stats();
  EXPECT_EQ(cs.promotions, 1u);
  EXPECT_EQ(cs.jit_code_bytes, code->code_size());
  EXPECT_EQ(cs.compiles, 1u);  // promotion is not a build
}

TEST(Tiering, InterpretedRunsNeverPromote) {
  Context ctx;
  const auto conv = sample_conversion(ctx);
  ASSERT_NE(conv, nullptr);
  for (std::uint64_t i = 0; i < 2 * Artifact::kPromoteRuns; ++i) {
    run_sample(*conv, Engine::kInterpreted);
  }
  EXPECT_EQ(conv->artifact()->compiled(), nullptr);
  // The kInterpreted runs left the DCG count at zero: one DCG run short of
  // kPromoteRuns still interprets.
  for (std::uint64_t i = 1; i < Artifact::kPromoteRuns; ++i) {
    run_sample(*conv, Engine::kDcg);
  }
  EXPECT_EQ(conv->artifact()->compiled(), nullptr);
  EXPECT_EQ(ctx.artifact_cache().stats().promotions, 0u);
}

TEST(Tiering, ContextsSharingACachePromoteThePairOnce) {
  auto shared = std::make_shared<ArtifactCache>();
  Context a(shared);
  Context b(shared);
  const auto ca = sample_conversion(a);
  const auto cb = sample_conversion(b);
  ASSERT_NE(ca, nullptr);
  ASSERT_NE(cb, nullptr);
  ASSERT_EQ(ca->artifact().get(), cb->artifact().get());
  const auto reference = run_sample(*ca, Engine::kInterpreted);
  // The two contexts' runs add up on the one artifact.
  for (std::uint64_t i = 0; i < Artifact::kPromoteRuns; ++i) {
    EXPECT_EQ(run_sample(i % 2 == 0 ? *ca : *cb, Engine::kDcg), reference);
  }
  EXPECT_EQ(run_sample(*ca, Engine::kDcg), reference);
  EXPECT_EQ(run_sample(*cb, Engine::kDcg), reference);
  ASSERT_NE(ca->artifact()->compiled(), nullptr);
  EXPECT_EQ(ca->artifact()->compiled(), cb->artifact()->compiled());
  EXPECT_EQ(shared->stats().promotions, 1u);
  EXPECT_EQ(shared->stats().compiles, 1u);
}

// The artifact takes no lock: while the promoting caller compiles, the
// others keep interpreting. Run under tsan in CI (label artifact-cache).
TEST(Tiering, ConcurrentRunsPromoteExactlyOnce) {
  Context ctx;
  const auto conv = sample_conversion(ctx);
  ASSERT_NE(conv, nullptr);
  const auto reference = run_sample(*conv, Engine::kInterpreted);
  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) {
      }
      for (std::uint64_t i = 0; i < Artifact::kPromoteRuns; ++i) {
        if (run_sample(*conv, Engine::kDcg) != reference) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  while (ready.load() != kThreads) {
  }
  go.store(true);
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
  EXPECT_NE(conv->artifact()->compiled(), nullptr);
  EXPECT_EQ(ctx.artifact_cache().stats().promotions, 1u);
}

}  // namespace
}  // namespace pbio
