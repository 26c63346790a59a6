#include "replay.h"

#include <cstring>
#include <memory>
#include <optional>
#include <thread>

#include "baselines/mpilite/pack.h"
#include "bench_support/workload.h"
#include "cache/artifact_cache.h"
#include "fmt/meta.h"
#include "pbio/context.h"
#include "pbio/format_service.h"
#include "trace.h"
#include "transport/loopback.h"
#include "verify/verify.h"
#include "vcode/jit_convert.h"

namespace perfbench {
namespace {

using pbio::Context;

double us_per(const std::map<std::string, trace::Totals>& t, const char* layer,
              std::uint64_t n = 0) {
  const auto it = t.find(layer);
  if (it == t.end()) return 0.0;
  const std::uint64_t count = n != 0 ? n : it->second.count;
  return count == 0 ? 0.0 : static_cast<double>(it->second.total_ns) / 1e3 /
                                static_cast<double>(count);
}

void replay_setup(const std::vector<const PairInputs*>& pairs, int reps, Report& rep) {
  auto shared = std::make_shared<pbio::cache::ArtifactCache>();
  for (int r = 0; r < reps; ++r) {
    for (const PairInputs* p : pairs) {
      const std::vector<std::uint8_t> meta = pbio::fmt::encode_meta(p->wire);
      {
        trace::Span s("fmt.decode_meta");
        if (!pbio::fmt::decode_meta(meta).is_ok()) rep.fail();
      }
      Context ctx;  // private cache: try_conversion below compiles
      Context::FormatId wid = 0;
      {
        trace::Span s("pbio.context.register");
        wid = ctx.register_format(p->wire);
      }
      const Context::FormatId nid = ctx.register_format(p->native);
      pbio::convert::Plan plan;
      {
        trace::Span s("convert.compile_plan");
        plan = pbio::convert::compile_plan(p->wire, p->native);
      }
      {
        trace::Span s("verify.verify_plan");
        plan.verified = pbio::verify::verify_plan(plan).ok();
      }
      if (!plan.verified) rep.fail();
      std::optional<pbio::vcode::CompiledConvert> cc;
      {
        trace::Span s("vcode.compile");
        cc.emplace(std::move(plan));
      }
      {
        trace::Span s("pbio.context.try_conversion_cold");
        if (!ctx.try_conversion(wid, nid).is_ok()) rep.fail();
      }
      // Warm: a new context over a cache that already holds the pair.
      Context warm(shared);
      const auto wwid = warm.register_format(p->wire);
      const auto wnid = warm.register_format(p->native);
      if (r == 0) {
        Context prime(shared);
        (void)prime.try_conversion(prime.register_format(p->wire),
                                   prime.register_format(p->native));
      }
      {
        trace::Span s("pbio.context.try_conversion_warm");
        if (!warm.try_conversion(wwid, wnid).is_ok()) rep.fail();
      }
      rep.attempted += 2;
    }
  }
}

void replay_format_service(const std::vector<const PairInputs*>& pairs, int reps,
                           Report& rep) {
  Context svc_ctx;
  std::vector<Context::FormatId> ids;
  for (const PairInputs* p : pairs) ids.push_back(svc_ctx.register_format(p->wire));
  auto [server_end, client_end] = pbio::transport::make_loopback_pair();
  pbio::FormatServiceServer server(svc_ctx);
  std::thread srv([&server, ch = server_end.get()] {
    try {
      server.serve_until_closed(*ch);
    } catch (const std::exception&) {
      // The client's lookups then fail and are counted.
    }
  });
  pbio::FormatServiceClient client(*client_end);
  for (int r = 0; r < reps; ++r) {
    for (Context::FormatId id : ids) {
      trace::Span s("pbio.format_service.lookup");
      ++rep.attempted;
      if (!client.lookup(id).is_ok()) rep.fail();
    }
  }
  client_end->close();
  srv.join();
}

struct EngineTimes {
  std::uint64_t records = 0;
  std::uint64_t mpilite_records = 0;
};

void replay_engines(const std::vector<const PairInputs*>& pairs, Report& rep,
                    EngineTimes& et) {
  constexpr int kRounds = 64;
  for (const PairInputs* p : pairs) {
    if (!p->wire.is_fixed_layout()) continue;
    pbio::convert::Plan plan = pbio::convert::compile_plan(p->wire, p->native);
    plan.verified = pbio::verify::verify_plan(plan).ok();
    const pbio::vcode::CompiledConvert dcg(plan);
    std::vector<std::uint8_t> out(p->native.fixed_size);
    const auto input = [&](const Template& t) {
      pbio::convert::ExecInput in;
      in.src = t.wire.data();
      in.src_size = t.wire.size();
      in.dst = out.data();
      in.dst_size = out.size();
      return in;
    };
    // Correctness first (both engines against the oracle), then timing.
    for (const Template& t : p->templates) {
      for (const bool use_dcg : {true, false}) {
        std::memset(out.data(), 0, out.size());
        const pbio::Status st =
            use_dcg ? dcg.run(input(t)) : pbio::convert::run_plan(plan, input(t));
        ++rep.attempted;
        if (!st.is_ok() || !matches(out.data(), t.expected, p->mask)) rep.fail();
      }
    }
    {
      trace::Span s("convert.dcg");
      for (int r = 0; r < kRounds; ++r) {
        for (const Template& t : p->templates) (void)dcg.run(input(t));
      }
    }
    {
      trace::Span s("convert.interp");
      for (int r = 0; r < kRounds; ++r) {
        for (const Template& t : p->templates) (void)pbio::convert::run_plan(plan, input(t));
      }
    }
    et.records += kRounds * p->templates.size();
    // mpilite: the sender packs its image to the canonical form, the
    // receiver's unpack is what is timed. Formats bench::datatype_for
    // cannot express are skipped.
    try {
      const pbio::mpilite::Datatype src_dt = pbio::bench::datatype_for(p->wire);
      const pbio::mpilite::Datatype dst_dt = pbio::bench::datatype_for(p->native);
      std::vector<pbio::ByteBuffer> packed(p->templates.size());
      for (std::size_t i = 0; i < p->templates.size(); ++i) {
        (void)pbio::mpilite::pack(src_dt, p->templates[i].wire.data(), 1, packed[i]);
      }
      trace::Span s("baselines.mpilite_unpack");
      for (int r = 0; r < kRounds; ++r) {
        for (const pbio::ByteBuffer& b : packed) {
          (void)pbio::mpilite::unpack(dst_dt, b.view(), out.data(), out.size(), 1);
        }
      }
      et.mpilite_records += kRounds * p->templates.size();
    } catch (const std::exception&) {
    }
  }
}

}  // namespace

void replay_layers(const std::vector<const PairInputs*>& pairs, Report& rep) {
  trace::reset();
  trace::enable(true);
  const int reps = static_cast<int>(std::max<std::size_t>(1, 64 / pairs.size()));
  replay_setup(pairs, reps, rep);
  replay_format_service(pairs, reps, rep);
  EngineTimes et;
  replay_engines(pairs, rep, et);
  trace::enable(false);
  trace::stop();

  const auto t = trace::totals();
  rep.set_layer("fmt.decode_meta_us", us_per(t, "fmt.decode_meta"));
  rep.set_layer("pbio.context.register_us", us_per(t, "pbio.context.register"));
  rep.set_layer("convert.compile_plan_us", us_per(t, "convert.compile_plan"));
  rep.set_layer("verify.verify_plan_us", us_per(t, "verify.verify_plan"));
  rep.set_layer("vcode.compile_us", us_per(t, "vcode.compile"));
  rep.set_layer("pbio.context.try_conversion_cold_us",
                us_per(t, "pbio.context.try_conversion_cold"));
  rep.set_layer("pbio.context.try_conversion_warm_us",
                us_per(t, "pbio.context.try_conversion_warm"));
  rep.set_layer("pbio.format_service.lookup_us", us_per(t, "pbio.format_service.lookup"));
  const double dcg = us_per(t, "convert.dcg", et.records);
  const double interp = us_per(t, "convert.interp", et.records);
  const double mpi = us_per(t, "baselines.mpilite_unpack", et.mpilite_records);
  rep.set_layer("convert.dcg_us_per_record", dcg);
  rep.set_layer("convert.interp_us_per_record", interp);
  rep.set_layer("baselines.mpilite_unpack_us_per_record", mpi);
  rep.set_layer("convert.interp_over_dcg", ratio(interp, dcg));
  rep.set_layer("baselines.mpilite_over_interp", ratio(mpi, interp));
}

}  // namespace perfbench
