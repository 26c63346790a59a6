// A cached conversion artifact: a verified plan that starts on the
// interpreter and is compiled to native code once it has run often enough
// to repay the compile.
//
// The paper builds the DCG routine "as soon as the wire format is known".
// The routine's one-time cost (emit + translation validation + W^X seal,
// 6-13 µs; docs/jit.md) is only repaid after enough records have gone
// through it — the interpreter is slower by 0.02-1 µs per record — so a
// pair that decodes a handful of records never repays an eager compile.
// An Artifact is therefore tiered:
//
//  * built with a verified plan only (compile_plan + verify);
//  * every counted run() before promotion executes that plan on the
//    interpreter and bumps a run counter;
//  * the caller whose run is the kPromoteRuns-th constructs the
//    vcode::CompiledConvert (emit, translation validation, seal) and
//    publishes it with a release store; every later run() takes the native
//    code after one acquire load.
//
// Exactly one caller compiles; concurrent callers never wait — they keep
// interpreting until the store lands. Both tiers execute the same verified
// plan and give bit-identical output.
// thread-domain: any
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "convert/interp.h"
#include "convert/plan.h"
#include "util/error.h"
#include "vcode/jit_convert.h"

namespace pbio::cache {

/// Promotion counters shared by an ArtifactCache and every artifact it
/// builds (an artifact may outlive its cache inside a Conversion).
struct PromotionTally {
  std::atomic<std::uint64_t> promotions{0};
  std::atomic<std::uint64_t> jit_code_bytes{0};
};

// thread-domain: any
class Artifact {
 public:
  /// Counted runs on the interpreter before the plan is compiled: the
  /// kPromoteRuns-th run compiles it. The compile breaks even after ~9
  /// (scalar-heavy records) to a few hundred records (158 at the median
  /// of random fixed-layout pairs); 64 bounds the interpreter's extra cost
  /// for a pair that does get hot while sparing the compile for one that
  /// decodes a few records.
  static constexpr std::uint64_t kPromoteRuns = 64;

  /// `plan` must already have passed the static verifier (plan.verified);
  /// `tally` (never null) counts this artifact's promotion.
  Artifact(convert::Plan plan, std::shared_ptr<PromotionTally> tally);
  ~Artifact();

  Artifact(const Artifact&) = delete;
  Artifact& operator=(const Artifact&) = delete;

  const convert::Plan& plan() const { return plan_; }

  /// The sealed native code, or null before promotion.
  const vcode::CompiledConvert* compiled() const {
    return code_.load(std::memory_order_acquire);  // mo: acquire pairs with promote()'s release store
  }

  /// True once promoted and native code was generated (x86-64 hosts).
  bool jitted() const {
    const vcode::CompiledConvert* code = compiled();
    return code != nullptr && code->jitted();
  }

  /// A counted DCG-tier run: the interpreter until promotion, the sealed
  /// native code after it. Same contract as convert::run_plan().
  Status run(const convert::ExecInput& in) const {
    if (const vcode::CompiledConvert* code = compiled()) return code->run(in);
    const std::uint64_t before = runs_.fetch_add(1, std::memory_order_relaxed);  // mo: only the RMW's atomicity matters: exactly one caller sees kPromoteRuns - 1
    if (before == kPromoteRuns - 1) {
      if (const vcode::CompiledConvert* code = promote()) return code->run(in);
    }
    return convert::run_plan(plan_, in);
  }

 private:
  /// Compile, seal and publish the plan's native code. Returns null when
  /// the compile throws (code memory could not be mapped): the artifact
  /// then stays on the interpreter.
  const vcode::CompiledConvert* promote() const;

  const convert::Plan plan_;
  const std::shared_ptr<PromotionTally> tally_;
  mutable std::atomic<std::uint64_t> runs_{0};
  /// Written once, by the promoting caller; owned (deleted) here.
  mutable std::atomic<const vcode::CompiledConvert*> code_{nullptr};
};

}  // namespace pbio::cache
