// stream_hetero / stream_homo: a one-way record stream over TCP loopback,
// one sender thread and one receiver thread, closed loop under TCP flow
// control.
//
//   hetero: array messages of 16 records, a seeded mix of fig4's 256-field
//           scalar record and fig3's 1 KB FEM record, laid out for sparc_v8
//           and decoded to the host ABI by Message::decode_all (DCG).
//   homo:   the same harness with an 88-byte record, 64 per message, sent
//           in the host layout, so conversion is the identity.
//
// The receiver verifies every record against the oracle. Two measured
// phases follow the warm-up:
//
//   closed: the sender writes as fast as a credit window of kWindow
//           messages in flight allows (the receiver returns credit as it
//           verifies): records_per_s.
//   paced:  the sender writes one message every 1/rate seconds (open loop,
//           rate well below capacity); a message's latency runs from when it
//           was due to the receiver's verified decode of it: latency_*.
//
// A traced run replaces the paced phase with a traced closed phase.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>

#include "bench_support/workload.h"
#include "common.h"
#include "inputs.h"
#include "pbio/pbio.h"
#include "replay.h"
#include "trace.h"
#include "util/pool.h"

namespace perfbench {
namespace {

using pbio::Context;

constexpr std::size_t kBatch = 8;           // Reader::next_batch slots
constexpr std::size_t kMessages = 64;       // distinct pre-built messages
constexpr std::size_t kWindow = 2 * kBatch;  // messages in flight, at most
constexpr std::size_t kRing = 1024;         // send-timestamp ring (> kWindow)
constexpr std::uint64_t kIntervalNs = 500'000'000;
constexpr std::uint64_t kPacedBit = 1ull << 63;  // ring entry is a due time
constexpr double kClosedShare = 0.75;  // of the untraced run; the rest is paced

struct Msg {
  std::size_t pair = 0;
  std::vector<std::uint8_t> wire;    // per_msg concatenated record images
  std::vector<std::uint32_t> tmpl;   // template index of each record
};

struct Inputs {
  std::vector<PairInputs> pairs;
  std::vector<Msg> msgs;
  std::size_t per_msg = 0;
};

Inputs make_inputs(bool hetero, const Options& opt) {
  std::mt19937_64 rng(opt.seed);
  Inputs in;
  const pbio::arch::Abi& host = pbio::arch::abi_host();
  if (hetero) {
    in.per_msg = 16;
    in.pairs.push_back(make_pair(scalar_spec(256), pbio::arch::abi_sparc_v8(), host, 8, rng));
    in.pairs.push_back(make_pair(pbio::bench::mech_spec(pbio::bench::Size::k1KB),
                                 pbio::arch::abi_sparc_v8(), host, 8, rng));
  } else {
    in.per_msg = 64;
    in.pairs.push_back(make_pair(small_spec(), host, host, 16, rng));
  }
  // Every format gets the same share of messages, in a seeded order, so the
  // seed varies the records but not the work per message on average.
  // Messages 0..pairs-1 carry one format each: set-up sends them, so it
  // learns every format whatever the seed.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < kMessages; ++i) order.push_back(i % in.pairs.size());
  std::shuffle(order.begin() + static_cast<std::ptrdiff_t>(in.pairs.size()), order.end(), rng);
  for (std::size_t i = 0; i < kMessages; ++i) {
    Msg m;
    m.pair = order[i];
    const PairInputs& p = in.pairs[m.pair];
    for (std::size_t r = 0; r < in.per_msg; ++r) {
      const auto t = static_cast<std::uint32_t>(rng() % p.templates.size());
      m.tmpl.push_back(t);
      m.wire.insert(m.wire.end(), p.templates[t].wire.begin(), p.templates[t].wire.end());
    }
    in.msgs.push_back(std::move(m));
  }
  if (opt.plant_fault) plant_fault(in.pairs.front().templates.front().expected, &in.pairs.front().mask);
  return in;
}

/// Everything one connection needs, built by set-up.
struct Rig {
  Context send_ctx;
  Context recv_ctx;
  std::vector<Context::FormatId> wire_ids;
  std::unique_ptr<pbio::transport::SocketListener> listener;
  std::unique_ptr<pbio::transport::SocketChannel> send_ch;
  std::unique_ptr<pbio::transport::SocketChannel> recv_ch;
  std::unique_ptr<pbio::Writer> writer;
  std::unique_ptr<pbio::Reader> reader;
};

/// Receiver-side state: decode, verify, count.
struct Receiver {
  const Inputs& in;
  Report& rep;
  std::vector<std::vector<std::uint8_t>> out;
  std::uint64_t next_seq = 0;
  std::uint64_t zero_copy = 0;

  /// Decode and verify one message; returns false on any failure.
  bool consume(pbio::Message& m) {
    const Msg& msg = in.msgs[next_seq++ % kMessages];
    const PairInputs& p = in.pairs[msg.pair];
    const std::size_t ns = p.native.fixed_size;
    std::vector<std::uint8_t>& buf = out[msg.pair];
    pbio::Status st;
    {
      trace::Span s("pbio.message.decode_all");
      st = m.decode_all(buf.data(), ns, buf.size());
    }
    if (m.zero_copy()) ++zero_copy;
    trace::Span s("bench.verify");
    rep.attempted += in.per_msg;
    bool ok = st.is_ok() && m.count() == in.per_msg;
    for (std::size_t r = 0; ok && r < in.per_msg; ++r) {
      if (!matches(buf.data() + r * ns, p.templates[msg.tmpl[r]].expected, p.mask)) {
        rep.fail();
        ok = false;
      }
    }
    if (!st.is_ok()) rep.fail(in.per_msg);
    return ok;
  }
};

/// Build one rig (contexts, connection, reader and writer) up to the first verified decode.
std::unique_ptr<Rig> setup(const Inputs& in, Receiver& rx, bool& ok) {
  auto s = std::make_unique<Rig>();
  std::vector<Context::FormatId> native_ids;
  for (const PairInputs& p : in.pairs) {
    s->wire_ids.push_back(s->send_ctx.register_format(p.wire));
    native_ids.push_back(s->recv_ctx.register_format(p.native));
  }
  s->listener = std::make_unique<pbio::transport::SocketListener>();
  auto conn = pbio::transport::socket_connect(s->listener->port());
  auto acc = s->listener->accept();
  ok = conn.is_ok() && acc.is_ok();
  if (!ok) return s;
  s->send_ch = std::move(conn).take();
  s->recv_ch = std::move(acc).take();
  s->writer = std::make_unique<pbio::Writer>(s->send_ctx, *s->send_ch);
  s->reader = std::make_unique<pbio::Reader>(s->recv_ctx, *s->recv_ch);
  for (Context::FormatId id : native_ids) s->reader->expect(id);
  // Send and verify one message of each format (a format is announced
  // with its first record).
  rx.next_seq = 0;
  for (std::size_t i = 0; ok && i < in.pairs.size(); ++i) {
    const Msg& first = in.msgs[i];
    if (!s->writer->write_image(s->wire_ids[first.pair], first.wire).is_ok()) {
      ok = false;
      break;
    }
    auto m = s->reader->next();
    ok = m.is_ok() && rx.consume(m.value());
  }
  return s;
}

/// Sender-side counters, snapshotted by the sender thread itself at the
/// start of the traced phase and at the end.
struct SenderCounters {
  std::uint64_t msgs = 0;
  std::uint64_t syscalls = 0;
};

}  // namespace

void run_stream(const Options& opt, bool hetero, Report& rep) {
  const Inputs in = make_inputs(hetero, opt);
  Receiver rx{in, rep, {}};
  for (const PairInputs& p : in.pairs) rx.out.emplace_back(p.native.fixed_size * in.per_msg);

  // The main thread becomes the receiver; it keeps one CPU from set-up on
  // (set-up is single-threaded, so each set-up runs where the last did).
  pin_to_cpu_from_end(1);
  std::unique_ptr<Rig> rig;
  bool setup_ok = true;
  // Set-ups during the run verify their first messages with a receiver of
  // their own, so the stream's sequence is left alone.
  Receiver rx_aside = rx;
  const auto timed_setup = [&](Receiver& r, bool keep) {
    const std::uint64_t t0 = now_ns();
    bool ok = false;
    auto s = setup(in, r, ok);
    const double dt = static_cast<double>(now_ns() - t0) / 1e9;
    setup_ok = setup_ok && ok;
    if (keep) {
      rig = std::move(s);
    } else {
      for (const auto* ch : {s->send_ch.get(), s->recv_ch.get()}) {
        if (ch != nullptr) reset_on_close(ch->fd());
      }
    }
    return dt;
  };
  SetupTimer setups;
  setups.first_burst([&](bool keep) { return timed_setup(rx, keep); });
  if (!setup_ok) {
    rep.fail();
    return;
  }

  // Phases, on the receiver's clock: warm-up, closed, then paced (untraced
  // run) or traced (traced run, the same length as closed). An untraced
  // closed phase pauses for each slice of set-ups and leaves the pause out.
  const double closed_s = opt.trace ? opt.seconds / 2 : opt.seconds * kClosedShare;
  const double next_s = opt.seconds - closed_s;
  const double paced_rate = hetero ? 10000.0 : 20000.0;  // msgs/s
  enum Phase : int { kWarm, kMeasure, kPaced, kTraced, kDrain };
  std::atomic<int> phase{kWarm};
  std::vector<std::atomic<std::uint64_t>> ring(kRing);
  SenderCounters at_traced, at_end;
  std::atomic<bool> send_failed{false};
  std::atomic<std::uint64_t> credit{kWindow};  // sender may send seq < credit

  std::thread sender([&] {
    trace::set_role("sender");
    pin_to_cpu_from_end(0);
    pbio::transport::SocketChannel& ch = *rig->send_ch;
    bool traced_seen = false;
    std::uint64_t seq = in.pairs.size(), pace_t0 = 0, pace_k = 0;
    for (int ph; (ph = phase.load(std::memory_order_acquire)) != kDrain; ++seq) {
      if (!traced_seen && ph == kTraced) {
        traced_seen = true;
        at_traced = {seq, ch.send_syscalls()};
      }
      // Out of credit: sleep until the receiver returns some (a spinning
      // sender would compete with the receiver for the machine).
      for (std::uint64_t c; seq >= (c = credit.load(std::memory_order_acquire));) {
        credit.wait(c, std::memory_order_acquire);
      }
      std::uint64_t stamp = now_ns();
      if (ph == kPaced) {
        if (pace_t0 == 0) pace_t0 = stamp;
        const std::uint64_t due =
            pace_t0 + static_cast<std::uint64_t>(static_cast<double>(pace_k++) * 1e9 / paced_rate);
        while (now_ns() < due && phase.load(std::memory_order_relaxed) == kPaced) {
        }
        stamp = due | kPacedBit;
      }
      const Msg& m = in.msgs[seq % kMessages];
      ring[seq % kRing].store(stamp, std::memory_order_release);
      trace::Span s("pbio.writer.write_image");
      bool sent = false;
      try {
        sent = rig->writer->write_image(rig->wire_ids[m.pair], m.wire).is_ok();
      } catch (const std::exception&) {
      }
      if (!sent) {
        send_failed = true;
        break;
      }
    }
    if (!traced_seen) at_traced = {seq, ch.send_syscalls()};
    at_end = {seq, ch.send_syscalls()};
    ch.close();
  });
  trace::set_role("receiver");

  Intervals iv(kIntervalNs), paced(kIntervalNs);
  std::uint64_t msgs_measured = 0, batches_measured = 0;
  std::uint64_t msgs_traced = 0, batches_traced = 0, recs_traced = 0;
  std::uint64_t zc_at_traced = 0, rsys_at_traced = 0, zc_at_end = 0, rsys_at_end = 0;
  pbio::BufferPool::Stats pool_at_traced{};
  std::uint64_t t_measure = 0, t_closed_end = 0, t_next = 0, t_end = 0;
  bool pausing = false;  // credit withheld until every message sent is verified

  const std::uint64_t t_start = now_ns();
  const std::uint64_t warm_ns = 500'000'000;
  const auto closed_ns = static_cast<std::uint64_t>(closed_s * 1e9);
  const auto next_ns = static_cast<std::uint64_t>(next_s * 1e9);
  std::vector<pbio::Message> batch(kBatch);
  while (true) {
    pbio::Result<std::size_t> n = std::size_t{0};
    {
      trace::Span s("pbio.reader.next_batch");
      n = rig->reader->next_batch(batch);
    }
    const int ph = phase.load(std::memory_order_relaxed);
    if (!n.is_ok()) {
      if (ph != kDrain || n.status().code() != pbio::Errc::kChannelClosed) rep.fail();
      break;
    }
    for (std::size_t k = 0; k < n.value(); ++k) {
      const std::uint64_t seq = rx.next_seq;
      (void)rx.consume(batch[k]);  // failures are counted; keep draining
      const std::uint64_t stamp = ring[seq % kRing].load(std::memory_order_acquire);
      if (ph == kPaced && (stamp & kPacedBit) != 0) {
        paced.add_latency(now_ns() - (stamp & ~kPacedBit));
      }
      batch[k] = pbio::Message();
    }
    if (pausing && rx.next_seq == credit.load(std::memory_order_relaxed)) {
      // The sender waits for credit with nothing in flight.
      const std::uint64_t d = setups.slice([&](bool) { return timed_setup(rx_aside, false); });
      iv.skip(d);
      t_measure += d;
      pausing = false;
    }
    if (!pausing) {
      credit.store(rx.next_seq + kWindow, std::memory_order_release);
      credit.notify_one();
    }
    if (ph == kMeasure) {
      msgs_measured += n.value();
      iv.add_work(n.value() * in.per_msg);
      ++batches_measured;
    } else if (ph == kTraced) {
      msgs_traced += n.value();
      recs_traced += n.value() * in.per_msg;
      ++batches_traced;
    }
    const std::uint64_t t = now_ns();
    if (ph == kMeasure) iv.tick(t);
    if (ph == kPaced) paced.tick(t);
    if (pausing) continue;
    if (ph == kMeasure && !opt.trace && setups.due(t)) {
      pausing = true;
    } else if (ph == kWarm && t - t_start >= warm_ns) {
      t_measure = t;
      iv.start(t);
      phase = kMeasure;
    } else if (ph == kMeasure && t - t_measure >= closed_ns) {
      t_closed_end = t_next = t_end = t;
      if (opt.trace) {
        zc_at_traced = rx.zero_copy;
        rsys_at_traced = rig->recv_ch->recv_syscalls();
        pool_at_traced = pbio::BufferPool::shared().stats();
        trace::reset();
        trace::enable(true);
        phase = kTraced;
      } else {
        paced.start(t);
        phase = kPaced;
      }
    } else if (ph == kPaced && t - t_next >= next_ns) {
      phase = kDrain;
    } else if (ph == kTraced && t - t_next >= next_ns) {
      trace::enable(false);
      trace::stop();
      zc_at_end = rx.zero_copy;
      rsys_at_end = rig->recv_ch->recv_syscalls();
      t_end = t;
      phase = kDrain;
    }
  }
  sender.join();
  if (send_failed) rep.fail();
  if (!setup_ok) rep.fail();

  const double measured_s = static_cast<double>(t_closed_end - t_measure) / 1e9;
  const double frames_per_batch = ratio(static_cast<double>(msgs_measured),
                                        static_cast<double>(batches_measured));
  // Guard: stream_hetero is meant to be bound by the receiver's decode. If
  // batches come back far from full, the sender (the load generator) set
  // the rate and the run does not measure what it claims to.
  if (hetero && frames_per_batch < kBatch / 2.0) {
    rep.invalid = "receiver is not the bottleneck: frames_per_batch " +
                  std::to_string(frames_per_batch) + " < " + std::to_string(kBatch / 2);
  }

  rep.set_e2e("records_per_s", iv.rate(), "1/s", iv.intervals());
  rep.set_e2e("latency_p50_us", paced.p50_us(), "us", paced.samples());
  rep.set_info("latency_p99_us", paced.p99_us(), "us", paced.samples());
  rep.set_info("paced_rate", paced_rate, "msg/s");
  rep.set_e2e("setup_s", setups.median_s(), "s", setups.runs());
  rep.set_info("msgs_per_s", ratio(static_cast<double>(msgs_measured), measured_s), "1/s",
               msgs_measured);
  rep.set_info("frames_per_batch", frames_per_batch, "count", batches_measured);
  if (!opt.trace) return;

  // Traced window: per-layer numbers.
  const double traced_s = static_cast<double>(t_end - t_next) / 1e9;
  const auto t = trace::totals();
  const auto total_us = [&t](const char* layer) {
    const auto it = t.find(layer);
    return it == t.end() ? 0.0 : static_cast<double>(it->second.total_ns) / 1e3;
  };
  const auto per = [](double v, std::uint64_t n) { return ratio(v, static_cast<double>(n)); };
  const std::uint64_t sent = at_end.msgs - at_traced.msgs;
  const auto pool = pbio::BufferPool::shared().stats();
  const double hits = static_cast<double>(pool.hits - pool_at_traced.hits);
  const double misses = static_cast<double>(pool.misses - pool_at_traced.misses);
  rep.set_layer("pbio.writer.write_us", per(total_us("pbio.writer.write_image"), sent));
  rep.set_layer("transport.send_syscalls_per_msg",
                per(static_cast<double>(at_end.syscalls - at_traced.syscalls), sent));
  rep.set_layer("transport.recv_syscalls_per_msg",
                per(static_cast<double>(rsys_at_end - rsys_at_traced), msgs_traced));
  rep.set_layer("pbio.reader.next_batch_us_per_msg",
                per(total_us("pbio.reader.next_batch"), msgs_traced));
  rep.set_layer("pbio.reader.frames_per_batch",
                per(static_cast<double>(msgs_traced), batches_traced));
  rep.set_layer("util.pool.hit_ratio", ratio(hits, hits + misses));
  rep.set_layer("pbio.message.decode_us_per_record",
                per(total_us("pbio.message.decode_all"), recs_traced));
  rep.set_layer("pbio.message.zero_copy_share",
                per(static_cast<double>(zc_at_end - zc_at_traced), msgs_traced));
  // The blocking thread: the receiver when decode bounds the stream
  // (hetero), the sender when the Writer and kernel do (homo).
  rep.set_layer("bench.unattributed_share",
                trace::unattributed_share(hetero ? "receiver" : "sender"));
  const double untraced_rate = ratio(static_cast<double>(msgs_measured), measured_s);
  const double traced_rate = ratio(static_cast<double>(msgs_traced), traced_s);
  rep.set_layer("bench.trace_overhead_share", 1.0 - ratio(traced_rate, untraced_rate));

  std::vector<const PairInputs*> pairs;
  for (const PairInputs& p : in.pairs) pairs.push_back(&p);
  replay_layers(pairs, rep);
}

}  // namespace perfbench
