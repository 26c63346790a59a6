#include "cache/artifact.h"

#include <cassert>
#include <utility>

#include "obs/span.h"

namespace pbio::cache {

Artifact::Artifact(convert::Plan plan, std::shared_ptr<PromotionTally> tally)
    : plan_(std::move(plan)), tally_(std::move(tally)) {
  assert(plan_.verified && "an artifact's plan is verified before it is built");
  assert(tally_ != nullptr);
}

Artifact::~Artifact() {
  delete code_.load(std::memory_order_relaxed);  // mo: destruction; no caller can be running this artifact
}

const vcode::CompiledConvert* Artifact::promote() const {
  // The plan is already verified, so CompiledConvert goes straight to emit,
  // translation validation and the W^X seal.
  std::unique_ptr<const vcode::CompiledConvert> code;
  try {
    OBS_SPAN("pbio.cache.compile");
    code = std::make_unique<const vcode::CompiledConvert>(plan_);
  } catch (const PbioError&) {
    OBS_COUNT("pbio.cache.promotion_failures", 1);
    return nullptr;
  }
  OBS_COUNT("pbio.cache.promotions", 1);
  tally_->promotions.fetch_add(1, std::memory_order_relaxed);  // mo: independent statistic
  tally_->jit_code_bytes.fetch_add(code->code_size(),
                                   std::memory_order_relaxed);  // mo: independent statistic
  const vcode::CompiledConvert* published = code.release();
  code_.store(published, std::memory_order_release);  // mo: release pairs with compiled()'s acquire load; publishes the sealed code
  return published;
}

}  // namespace pbio::cache
