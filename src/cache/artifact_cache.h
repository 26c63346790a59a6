// Process-wide conversion-artifact cache: verified plans (and the JIT code
// each seals once it is hot, cache/artifact.h), shared across every
// Context/worker/connection that opts in.
//
// Motivation (ROADMAP item 1): a broker fleet holds thousands of
// connections that share a handful of (wire, native) format pairs, yet
// each Context used to pay plan build + static verify + JIT + translation
// validation per pair. This cache makes the artifact the unit of sharing:
//
//  * keys are canonical structural hashes (fmt::canonical_hash) of the
//    format pair, so byte-order/field-order/arch-name presentation
//    differences collapse onto one artifact;
//  * the cache is N-way sharded; the hit path is lock-free: one acquire
//    load of the shard's immutable snapshot (a key-sorted vector), a
//    binary search, a shared_ptr refcount bump. Inserts copy-on-write the
//    snapshot under the shard mutex — one allocation, however many entries
//    it holds — and publish with a release store. Retired snapshots are
//    kept until cache destruction (read-mostly: one small retired vector
//    per built pair, i.e. per handful-of-microseconds event);
//  * a stampede of cold callers is collapsed by single-flight: the first
//    caller builds, everyone else blocks on that flight's condvar and
//    shares the one artifact — a 10k-connection cold start performs
//    exactly one build (and at most one promotion) per distinct pair.
//
// The cache lives in memory only: a restarted process builds each
// distinct pair once.
//
// Metrics: pbio.cache.{hits,misses,single_flight_waits,compiles,promotions}
// via obs, mirrored in Stats for mutex-free polling. A "compile" is an
// artifact build (plan + verify); a promotion is the later JIT of a hot
// artifact. Every get_or_build() counts exactly one hit or one miss, and
// every miss is either the build's leader or a single-flight waiter:
// misses == compiles + single_flight_waits (failed builds aside).
// thread-domain: any
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/artifact.h"
#include "fmt/format.h"
#include "util/error.h"
#include "util/mutex.h"

namespace pbio::cache {

/// Conversion-artifact cache key: the canonical structural hashes
/// (fmt::canonical_hash) of the wire and native format descriptions.
struct PairKey {
  std::uint64_t wire = 0;
  std::uint64_t native = 0;

  bool operator==(const PairKey&) const = default;
};

struct PairKeyHash {
  std::size_t operator()(const PairKey& k) const {
    return static_cast<std::size_t>(k.wire * 0x9E3779B97F4A7C15ull ^ k.native);
  }
};

/// Where an artifact handed out by get_or_build() came from — callers
/// (Context) use it to keep their own per-context accounting honest.
enum class Source : std::uint8_t {
  kCached,    // hit on the snapshot map
  kWaited,    // another caller was already building; shared its result
  kCompiled,  // this call built the artifact (plan + verify)
};

// thread-domain: any
class ArtifactCache {
 public:
  ArtifactCache();
  ~ArtifactCache();

  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  struct Got {
    std::shared_ptr<const Artifact> artifact;
    Source source = Source::kCached;
  };

  /// Fetch (building on first use, stampede-collapsed) the conversion
  /// artifact for `wire` -> `native`, keyed by the canonical hashes the
  /// caller resolved alongside the descriptions. Failures (plan build or
  /// verification errors) are returned to every waiter and are not cached.
  Result<Got> get_or_build(const fmt::FormatDesc& wire,
                           const fmt::FormatDesc& native, PairKey key);

  /// Mutex-free counter snapshot (relaxed atomics; cross-counter
  /// consistency not promised).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t single_flight_waits = 0;
    std::uint64_t compiles = 0;        // artifact builds (plan + verify)
    std::uint64_t promotions = 0;      // artifacts JIT-compiled when hot
    std::uint64_t jit_code_bytes = 0;  // generated code, counted at promotion
  };
  Stats stats() const;

  /// Number of distinct artifacts currently published.
  std::size_t size() const;

  static constexpr unsigned kShards = 8;

 private:
  /// An immutable snapshot: the shard's artifacts sorted by key.
  using Map = std::vector<std::pair<PairKey, std::shared_ptr<const Artifact>>>;

  /// One in-progress build, shared by the leader and every waiter.
  struct Flight {
    Mutex mu;
    CondVar cv;
    bool done PBIO_GUARDED_BY(mu) = false;
    std::shared_ptr<const Artifact> artifact PBIO_GUARDED_BY(mu);
    Status error PBIO_GUARDED_BY(mu);
  };

  struct Shard {
    /// The live snapshot. Readers load-acquire and never lock; the pointee
    /// is immutable and owned by `history` below.
    std::atomic<const Map*> live{nullptr};
    mutable Mutex mu;
    /// Every snapshot ever published (the last entry is `live`). Kept
    /// until cache destruction so a reader can never observe a freed map.
    std::vector<std::unique_ptr<const Map>> history PBIO_GUARDED_BY(mu);
    std::unordered_map<PairKey, std::shared_ptr<Flight>, PairKeyHash>
        inflight PBIO_GUARDED_BY(mu);
  };

  static std::size_t shard_of(PairKey key) {
    return PairKeyHash{}(key) % kShards;
  }

  std::shared_ptr<const Artifact> probe(const Shard& shard, PairKey key) const;
  void publish(Shard& shard, PairKey key,
               std::shared_ptr<const Artifact> artifact)
      PBIO_REQUIRES(shard.mu);

  /// The build (leader only, no locks held): plan build + static verify.
  /// The JIT runs later, on the artifact's kPromoteRuns-th run.
  Result<Got> build(const fmt::FormatDesc& wire,
                    const fmt::FormatDesc& native);

  Shard shards_[kShards];

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> waits_{0};
  std::atomic<std::uint64_t> compiles_{0};
  const std::shared_ptr<PromotionTally> tally_ =
      std::make_shared<PromotionTally>();
};

/// The process-wide cache: what a fleet of broker workers / tools shares
/// by constructing their Context over it. Never destroyed (artifacts may
/// be executing on any thread at process exit).
std::shared_ptr<ArtifactCache> process_cache();

}  // namespace pbio::cache
