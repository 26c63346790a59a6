#include "pbio/context.h"

#include <utility>

#include "obs/span.h"

namespace pbio {

Result<std::shared_ptr<const Conversion>> Context::try_conversion(
    FormatId wire, FormatId native) {
  {
    MutexLock lock(mu_);
    auto it = conversions_.find({wire, native});
    if (it != conversions_.end()) {
      conversion_cache_hits_.fetch_add(1, std::memory_order_relaxed);  // mo: independent statistic, read by stats() only
      OBS_COUNT("pbio.conv.cache_hits", 1);
      return it->second;
    }
  }
  // Bloom-filter negative cache: an id the registry has definitely never
  // seen is rejected with one lock-free probe — unknown-id storms (fuzzing
  // peers, id typos) never touch the registry mutex.
  if (!registry_.maybe_contains(wire) || !registry_.maybe_contains(native)) {
    negative_cache_hits_.fetch_add(1, std::memory_order_relaxed);  // mo: independent statistic, read by stats() only
    OBS_COUNT("pbio.cache.negative_hits", 1);
    return Status(Errc::kUnknownFormat,
                  "Context::conversion: unknown format id");
  }
  const fmt::FormatRegistry::Resolved src = registry_.resolve(wire);
  const fmt::FormatRegistry::Resolved dst = registry_.resolve(native);
  if (src.desc == nullptr || dst.desc == nullptr) {
    return Status(Errc::kUnknownFormat,
                  "Context::conversion: unknown format id");
  }
  // Resolve through the artifact cache, keyed by the canonical structural
  // hash of the pair. Plan build, static verification and stampede
  // collapse live there (the JIT and translation validation run later, in
  // the artifact, once the pair is hot); this context only keeps its own
  // accounting straight from the Source tag.
  auto got = cache_->get_or_build(*src.desc, *dst.desc,
                                  {src.canonical, dst.canonical});
  if (!got.is_ok()) {
    OBS_COUNT("pbio.conv.verify_rejects", 1);
    return got.status();
  }
  cache::ArtifactCache::Got result = std::move(got).take();
  switch (result.source) {
    case cache::Source::kCached:
      shared_cache_hits_.fetch_add(1, std::memory_order_relaxed);  // mo: independent statistic, read by stats() only
      break;
    case cache::Source::kWaited:
      shared_cache_misses_.fetch_add(1, std::memory_order_relaxed);  // mo: independent statistic, read by stats() only
      single_flight_waits_.fetch_add(1, std::memory_order_relaxed);  // mo: independent statistic, read by stats() only
      break;
    case cache::Source::kCompiled:
      shared_cache_misses_.fetch_add(1, std::memory_order_relaxed);  // mo: independent statistic, read by stats() only
      conversions_compiled_.fetch_add(1, std::memory_order_relaxed);  // mo: independent statistic, read by stats() only
      OBS_COUNT("pbio.conv.compiled", 1);
      break;
  }
  auto conv = std::make_shared<const Conversion>(std::move(result.artifact));
  MutexLock lock(mu_);
  auto [it, inserted] = conversions_.try_emplace({wire, native}, conv);
  // A racing L1 insert for the same pair loses harmlessly: both entries
  // wrap the same shared artifact.
  return it->second;
}

std::shared_ptr<const Conversion> Context::conversion(FormatId wire,
                                                      FormatId native) {
  auto result = try_conversion(wire, native);
  if (!result.is_ok()) {
    throw PbioError(result.status().to_string());
  }
  return std::move(result).take();
}

Context::Stats Context::stats() const {
  Stats s;
  s.conversions_compiled =
      conversions_compiled_.load(std::memory_order_relaxed);  // mo: monotonic statistics; cross-counter consistency not promised
  s.conversion_cache_hits =
      conversion_cache_hits_.load(std::memory_order_relaxed);  // mo: see conversions_compiled
  s.shared_cache_hits =
      shared_cache_hits_.load(std::memory_order_relaxed);  // mo: see conversions_compiled
  s.shared_cache_misses =
      shared_cache_misses_.load(std::memory_order_relaxed);  // mo: see conversions_compiled
  s.single_flight_waits =
      single_flight_waits_.load(std::memory_order_relaxed);  // mo: see conversions_compiled
  s.negative_cache_hits =
      negative_cache_hits_.load(std::memory_order_relaxed);  // mo: see conversions_compiled
  return s;
}

}  // namespace pbio
