// format_churn: new peers learning formats. Each round a fresh reader
// Context over one shared cache::ArtifactCache meets a writer on an
// in-process loopback pair and learns seeded value::random_spec formats
// laid out for random pairs of the modelled ABIs, decoding one record of
// each and checking it against the oracle:
//
//   cold: a structural pair nobody has compiled yet (plan, verify, JIT);
//   warm: a pair already in the shared cache, seen from the new context;
//   late: a pair from the cache whose writer does not announce in band
//         (Writer::set_announce_in_band(false)); the reader resolves the id
//         through a FormatServiceClient served by a second thread.
//
// A learn is timed from the write of the record to its verified decode.
// Every kRoundsPerEpoch rounds the shared cache, the writer's context and
// the format service are replaced by new ones, which bounds their size
// (and the process's memory) however many rounds a run completes.
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "cache/artifact_cache.h"
#include "common.h"
#include "inputs.h"
#include "pbio/pbio.h"
#include "replay.h"
#include "trace.h"
#include "value/random.h"

namespace perfbench {
namespace {

using pbio::Context;

constexpr std::size_t kRoundsPerEpoch = 100;
constexpr std::size_t kPrime = 8;  // pairs compiled when an epoch starts
// One round learns, in this order: cold, warm, cold, warm, late.
enum Kind { kCold, kWarm, kLate };
constexpr Kind kRound[] = {kCold, kWarm, kCold, kWarm, kLate};
constexpr std::size_t kColdPerRound = 2;
constexpr std::uint64_t kIntervalNs = 500'000'000;  // of summed round time

struct Epoch {
  std::shared_ptr<pbio::cache::ArtifactCache> cache;
  std::vector<PairInputs> pairs;  // the first `compiled` are in the cache
  std::size_t compiled = 0;
};

/// Seeded fixed-layout formats (strings and variable arrays would make the
/// decoded image hold pointers, which no oracle image can match).
std::vector<PairInputs> make_pairs(std::mt19937_64& rng, std::size_t n, std::uint64_t& serial) {
  pbio::value::RandomSpecOptions o;
  o.allow_strings = false;
  o.allow_var_arrays = false;
  const auto abis = pbio::arch::all_abis();
  std::vector<PairInputs> out;
  for (std::size_t i = 0; i < n; ++i) {
    pbio::arch::StructSpec spec = pbio::value::random_spec(rng, o);
    spec.name = "churn" + std::to_string(serial++);
    const pbio::arch::Abi& w = *abis[rng() % abis.size()];
    const pbio::arch::Abi& nat = *abis[rng() % abis.size()];
    out.push_back(make_pair(spec, w, nat, 1, rng));
  }
  return out;
}

/// The format service the late joiners resolve through.
struct Service {
  Context ctx;
  pbio::FormatServiceServer server{ctx};
  std::unique_ptr<pbio::transport::LoopbackChannel> server_end, client_end;
  std::unique_ptr<pbio::FormatServiceClient> client;
  std::thread thread;

  Service() {
    auto [a, b] = pbio::transport::make_loopback_pair();
    server_end = std::move(a);
    client_end = std::move(b);
    client = std::make_unique<pbio::FormatServiceClient>(*client_end);
    thread = std::thread([this] {
      pin_to_cpu_from_end(1);
      try {
        server.serve_until_closed(*server_end);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: format service: %s\n", e.what());
      }
    });
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  ~Service() {
    client_end->close();
    thread.join();
  }
};

struct Totals {
  // Interval clock: the summed duration of rounds, which excludes input
  // generation between epochs. `learns` carries the learn count as work.
  Intervals learns{kIntervalNs}, cold{kIntervalNs}, warm{kIntervalNs}, late{kIntervalNs};
  std::uint64_t nlearns = 0;
  std::uint64_t round_ns = 0;
  std::uint64_t negative_hits = 0;
  pbio::cache::ArtifactCache::Stats cache{};
  std::uint64_t cache_pairs = 0;
};

struct Churn {
  const Options& opt;
  Report& rep;
  std::mt19937_64 rng;
  std::uint64_t serial = 0;
  std::unique_ptr<Service> svc;
  std::unique_ptr<Context> writer_ctx;
  Epoch epoch;

  Churn(const Options& o, Report& r) : opt(o), rep(r), rng(o.seed) {}

  /// Fold the current epoch's cache counters into `t`.
  void close_epoch(Totals& t) {
    if (!epoch.cache) return;
    const auto s = epoch.cache->stats();
    t.cache.hits += s.hits;
    t.cache.misses += s.misses;
    t.cache.compiles += s.compiles;
    t.cache.single_flight_waits += s.single_flight_waits;
    t.cache_pairs += epoch.cache->size();
  }

  /// Start an epoch over `pairs`: a new shared cache, writer context and
  /// format service that learns every wire format, and the first kPrime
  /// pairs compiled.
  void open_epoch(std::vector<PairInputs> pairs) {
    epoch = Epoch{std::make_shared<pbio::cache::ArtifactCache>(), std::move(pairs), 0};
    svc.reset();
    svc = std::make_unique<Service>();
    writer_ctx = std::make_unique<Context>();
    for (const PairInputs& p : epoch.pairs) svc->ctx.register_format(p.wire);
    for (; epoch.compiled < kPrime; ++epoch.compiled) {
      Context c(epoch.cache);
      const PairInputs& p = epoch.pairs[epoch.compiled];
      if (!c.try_conversion(c.register_format(p.wire), c.register_format(p.native)).is_ok()) {
        rep.fail();
      }
    }
  }

  std::vector<PairInputs> next_inputs() {
    trace::Span s("bench.inputs");
    return make_pairs(rng, kPrime + kRoundsPerEpoch * kColdPerRound, serial);
  }

  /// One round; learn latencies go to `t` (null: set-up, untimed).
  bool round(Totals* t, std::size_t max_learns = std::size(kRound)) {
    if (epoch.compiled + kColdPerRound > epoch.pairs.size()) {
      if (t != nullptr) close_epoch(*t);
      open_epoch(next_inputs());
    }
    const std::uint64_t r0 = now_ns();
    auto [a, b] = pbio::transport::make_loopback_pair();
    Context rctx(epoch.cache);
    pbio::Writer w(*writer_ctx, *a);
    pbio::Writer late_w(*writer_ctx, *a);
    late_w.set_announce_in_band(false);
    pbio::Reader r(rctx, *b);
    pbio::FormatServiceClient& client = *svc->client;
    r.set_format_resolver([&client](Context::FormatId id) {
      trace::Span s("pbio.format_service.lookup");
      return client.lookup(id);
    });
    // Cold learns take the next uncompiled pair; warm and late learns take
    // distinct pairs compiled before this round.
    const std::size_t known = epoch.compiled;
    std::size_t pick[std::size(kRound)];
    bool ok = true;
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i < std::size(kRound) && i < max_learns; ++i) {
      bool dup = kRound[i] != kCold;
      pick[i] = kRound[i] == kCold ? epoch.compiled++ : 0;
      while (dup) {
        pick[i] = rng() % known;
        dup = false;
        for (std::size_t j = 0; j < i; ++j) dup = dup || pick[j] == pick[i];
      }
      const PairInputs& p = epoch.pairs[pick[i]];
      Context::FormatId wid = 0;
      {
        trace::Span s("pbio.context.register");
        wid = writer_ctx->register_format(p.wire);
        r.expect(rctx.register_format(p.native));
      }
      out.assign(p.native.fixed_size, 0);
      const std::uint64_t t0 = now_ns();
      pbio::Status st;
      {
        trace::Span s("pbio.writer.write_image");
        st = (kRound[i] == kLate ? late_w : w).write_image(wid, p.templates[0].wire);
      }
      pbio::Result<pbio::Message> m = pbio::Status(pbio::Errc::kChannelClosed, "unsent");
      if (st.is_ok()) {
        trace::Span s("pbio.reader.next");
        m = r.next();
      }
      if (m.is_ok()) {
        trace::Span s("pbio.message.decode_into");
        st = m.value().decode_into(out.data(), out.size());
      }
      const bool good = m.is_ok() && st.is_ok() && matches(out.data(), p.templates[0].expected, p.mask);
      const std::uint64_t dt = now_ns() - t0;
      ++rep.attempted;
      if (!good) {
        rep.fail();
        ok = false;
      }
      if (t != nullptr) {
        (kRound[i] == kCold ? t->cold : kRound[i] == kWarm ? t->warm : t->late).add_latency(dt);
        t->learns.add_work(1);
        ++t->nlearns;
      }
    }
    if (t != nullptr) {
      t->negative_hits += rctx.stats().negative_cache_hits;
      t->round_ns += now_ns() - r0;
      for (Intervals* iv : {&t->learns, &t->cold, &t->warm, &t->late}) iv->tick(t->round_ns);
    }
    return ok;
  }
};

}  // namespace

void run_format_churn(const Options& opt, Report& rep) {
  pin_to_cpu_from_end(0);
  Churn ch(opt, rep);
  // Inputs for the first epoch exist before set-up starts; set-up is the
  // service, a fresh shared cache with its first compiles, and the first
  // verified decode.
  std::vector<PairInputs> first =
      make_pairs(ch.rng, kPrime + kRoundsPerEpoch * kColdPerRound, ch.serial);
  // The first cold learn — set-up's verified decode — meets the fault.
  if (opt.plant_fault) plant_fault(first[kPrime].templates[0].expected, &first[kPrime].mask);
  const std::mt19937_64 rng_after_inputs = ch.rng;
  bool setup_ok = true;
  const auto timed_setup = [&](Churn& c) {
    c.svc.reset();  // tearing down the previous set-up is not timed
    c.rng = rng_after_inputs;  // every set-up makes the same choices
    std::vector<PairInputs> pairs = first;
    const std::uint64_t t0 = now_ns();
    c.open_epoch(std::move(pairs));
    setup_ok = c.round(nullptr, 1) && setup_ok;
    return static_cast<double>(now_ns() - t0) / 1e9;
  };
  SetupTimer setups;
  setups.first_burst([&](bool) { return timed_setup(ch); });
  if (!setup_ok) {
    rep.fail();
    return;
  }
  trace::set_role("main");

  // Slices of set-ups during the untraced run work on a Churn of their own
  // and fall between rounds, outside the rounds' clock.
  Churn aside(opt, rep);
  const auto run_for = [&](double seconds, Totals& t, bool with_setups) {
    const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    for (std::uint64_t now; (now = now_ns()) < end;) {
      if (with_setups && setups.due(now)) setups.slice([&](bool) { return timed_setup(aside); });
      if (!ch.round(&t)) break;
    }
    ch.close_epoch(t);
  };
  Totals warmup, untraced;
  run_for(0.3, warmup, false);
  run_for(opt.trace ? opt.seconds / 2 : opt.seconds, untraced, !opt.trace);
  if (!setup_ok) rep.fail();

  rep.set_e2e("records_per_s", untraced.learns.rate(), "1/s", untraced.learns.intervals());
  rep.set_e2e("latency_p50_us", untraced.cold.p50_us(), "us", untraced.cold.samples());
  rep.set_info("latency_p99_us", untraced.cold.p99_us(), "us", untraced.cold.samples());
  rep.set_e2e("setup_s", setups.median_s(), "s", setups.runs());
  const std::pair<const char*, const Intervals*> kinds[] = {
      {"learn_cold", &untraced.cold}, {"learn_warm", &untraced.warm}, {"late_join", &untraced.late}};
  for (const auto& [name, iv] : kinds) {
    rep.set_info(std::string(name) + "_p50_us", iv->p50_us(), "us", iv->samples());
    rep.set_info(std::string(name) + "_p99_us", iv->p99_us(), "us", iv->samples());
  }
  if (!opt.trace) return;

  // Traced half: start on a new epoch so cache counters cover it alone.
  ch.open_epoch(ch.next_inputs());
  Totals traced;
  trace::reset();
  trace::enable(true);
  run_for(opt.seconds / 2, traced, false);
  trace::enable(false);
  trace::stop();

  const double hits = static_cast<double>(traced.cache.hits);
  rep.set_layer("cache.shared_hit_ratio", ratio(hits, hits + static_cast<double>(traced.cache.misses)));
  rep.set_layer("cache.compiles_per_pair",
                ratio(static_cast<double>(traced.cache.compiles), static_cast<double>(traced.cache_pairs)));
  rep.set_layer("cache.single_flight_waits", static_cast<double>(traced.cache.single_flight_waits));
  rep.set_layer("cache.negative_hits", static_cast<double>(traced.negative_hits));
  rep.set_layer("bench.unattributed_share", trace::unattributed_share("main"));
  const double rate_u = ratio(static_cast<double>(untraced.nlearns), static_cast<double>(untraced.round_ns));
  const double rate_t = ratio(static_cast<double>(traced.nlearns), static_cast<double>(traced.round_ns));
  rep.set_layer("bench.trace_overhead_share", 1.0 - ratio(rate_t, rate_u));

  // Attribute the cold learn: replay the reader's set-up steps on this
  // epoch's newest cold pairs.
  std::vector<const PairInputs*> pairs;
  for (std::size_t i = kPrime; i < ch.epoch.compiled && pairs.size() < 32; ++i) {
    pairs.push_back(&ch.epoch.pairs[i]);
  }
  replay_layers(pairs, rep);
}

}  // namespace perfbench
