#include "cache/artifact_cache.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "convert/plan.h"
#include "obs/obs.h"
#include "obs/span.h"
#include "verify/verify.h"

namespace pbio::cache {

namespace {

/// The order of snapshot entries.
bool key_less(const PairKey& a, const PairKey& b) {
  return a.wire != b.wire ? a.wire < b.wire : a.native < b.native;
}

}  // namespace

ArtifactCache::ArtifactCache() = default;
ArtifactCache::~ArtifactCache() = default;

std::shared_ptr<const Artifact> ArtifactCache::probe(
    const Shard& shard, PairKey key) const {
  // Pairs with the release store in publish(): a reader that sees the new
  // map pointer also sees the fully constructed map behind it.
  const Map* map = shard.live.load(std::memory_order_acquire);  // mo: acquire pairs with publish()'s release store
  if (map == nullptr) return nullptr;
  auto it =
      std::ranges::lower_bound(*map, key, key_less, &Map::value_type::first);
  if (it == map->end() || it->first != key) return nullptr;
  return it->second;
}

void ArtifactCache::publish(Shard& shard, PairKey key,
                            std::shared_ptr<const Artifact> artifact) {
  const Map* old = shard.live.load(std::memory_order_relaxed);  // mo: mu held; only publishers (who hold mu) store this pointer
  auto next = std::make_unique<Map>();
  if (old != nullptr) {
    next->reserve(old->size() + 1);
    next->assign(old->begin(), old->end());
  }
  auto at =
      std::ranges::lower_bound(*next, key, key_less, &Map::value_type::first);
  if (at != next->end() && at->first == key) {
    at->second = std::move(artifact);
  } else {
    next->emplace(at, key, std::move(artifact));
  }
  const Map* fresh = next.get();
  shard.history.push_back(std::move(next));
  shard.live.store(fresh, std::memory_order_release);  // mo: release pairs with probe()'s acquire load; publishes the map contents
}

Result<ArtifactCache::Got> ArtifactCache::get_or_build(
    const fmt::FormatDesc& wire, const fmt::FormatDesc& native, PairKey key) {
  Shard& shard = shards_[shard_of(key)];
  auto count_hit = [this] {
    hits_.fetch_add(1, std::memory_order_relaxed);  // mo: independent statistic
    OBS_COUNT("pbio.cache.hits", 1);
  };
  if (auto hit = probe(shard, key)) {
    count_hit();
    return Got{std::move(hit), Source::kCached};
  }

  // Single-flight: exactly one caller builds a given key; the rest park on
  // the flight's condvar and share the result (or the failure).
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    MutexLock lock(shard.mu);
    // Re-probe under the lock: a build may have been published between the
    // lock-free miss above and here. That is a hit, not a miss — a miss is
    // only counted once this caller leads or waits on a flight.
    if (auto hit = probe(shard, key)) {
      count_hit();
      return Got{std::move(hit), Source::kCached};
    }
    auto [it, inserted] =
        shard.inflight.try_emplace(key, std::shared_ptr<Flight>());
    if (inserted) {
      it->second = std::make_shared<Flight>();
      leader = true;
    }
    flight = it->second;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);  // mo: independent statistic
  OBS_COUNT("pbio.cache.misses", 1);

  if (!leader) {
    waits_.fetch_add(1, std::memory_order_relaxed);  // mo: independent statistic
    OBS_COUNT("pbio.cache.single_flight_waits", 1);
    MutexLock lock(flight->mu);
    // The predicate runs with flight->mu held (CondVar::wait's contract),
    // but the analysis cannot see through condition_variable_any's template.
    flight->cv.wait(lock, [&]() PBIO_NO_THREAD_SAFETY_ANALYSIS {
      return flight->done;
    });
    if (!flight->error.is_ok()) return flight->error;
    return Got{flight->artifact, Source::kWaited};
  }

  // Leader path: build with no locks held, then publish and wake waiters.
  Result<Got> built = build(wire, native);
  if (built.is_ok()) {
    MutexLock lock(shard.mu);
    publish(shard, key, built.value().artifact);
    shard.inflight.erase(key);
  } else {
    MutexLock lock(shard.mu);
    shard.inflight.erase(key);
  }
  {
    MutexLock lock(flight->mu);
    flight->done = true;
    if (built.is_ok()) {
      flight->artifact = built.value().artifact;
    } else {
      flight->error = built.status();
    }
  }
  flight->cv.notify_all();
  return built;
}

Result<ArtifactCache::Got> ArtifactCache::build(
    const fmt::FormatDesc& wire, const fmt::FormatDesc& native) {
  convert::Plan plan;
  {
    OBS_SPAN("pbio.cache.plan");
    try {
      plan = convert::compile_plan(wire, native);
    } catch (const convert::PlanBuildError& e) {
      return Status(Errc::kMalformed, e.what());
    }
  }
  {
    OBS_SPAN("pbio.cache.verify");
    Status vst = verify::verify_status(plan);
    if (!vst.is_ok()) {
      assert(false && "compile_plan produced an unverifiable plan");
      return vst;
    }
  }
  plan.verified = true;

  auto artifact = std::make_shared<const Artifact>(std::move(plan), tally_);
  compiles_.fetch_add(1, std::memory_order_relaxed);  // mo: independent statistic
  OBS_COUNT("pbio.cache.compiles", 1);
  return Got{std::move(artifact), Source::kCompiled};
}

ArtifactCache::Stats ArtifactCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);  // mo: monotonic statistics; cross-counter consistency not promised
  s.misses = misses_.load(std::memory_order_relaxed);  // mo: see hits
  s.single_flight_waits = waits_.load(std::memory_order_relaxed);  // mo: see hits
  s.compiles = compiles_.load(std::memory_order_relaxed);  // mo: see hits
  s.promotions = tally_->promotions.load(std::memory_order_relaxed);  // mo: see hits
  s.jit_code_bytes = tally_->jit_code_bytes.load(std::memory_order_relaxed);  // mo: see hits
  return s;
}

std::size_t ArtifactCache::size() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    const Map* map = shard.live.load(std::memory_order_acquire);  // mo: acquire pairs with publish()'s release store
    if (map != nullptr) n += map->size();
  }
  return n;
}

std::shared_ptr<ArtifactCache> process_cache() {
  // Leaked intentionally: sealed code buffers may still be executing on
  // detached threads during static destruction.
  static ArtifactCache* const kCache = new ArtifactCache();
  static const std::shared_ptr<ArtifactCache> kHandle(kCache,
                                                      [](ArtifactCache*) {});
  return kHandle;
}

}  // namespace pbio::cache
