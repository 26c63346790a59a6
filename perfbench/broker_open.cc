// broker_open: the epoll broker (2 workers, echo, decode on) under an
// open-loop load. One client thread drives 4 TCP connections and sends
// each request when it is due on a fixed rate ladder, whatever the broker
// is doing; each request is timed from its due time to the verified echo,
// so a stall is charged to every request it delays.
//
// After the ladder, a capacity phase keeps a fixed window of requests in
// flight on every connection, so the broker's echo rate, not the offered
// rate, sets records_per_s; the run is invalid when the client was not
// left waiting on the broker for a good share of that phase.
//
// Requests are seeded sparc_v8 FEM records of 100 B and 1 KB. Every echoed
// frame is compared byte for byte with the frame the oracle expects back.
//
// The client uses raw non-blocking sockets (not the transport layer) so its
// own costs stay apart from the broker's, and it spins on epoll_wait(0) so
// requests leave on time; client.send_lag_p99_us checks that they did.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>

#include "bench_support/workload.h"
#include "broker/broker.h"
#include "common.h"
#include "fmt/meta.h"
#include "inputs.h"
#include "pbio/encode.h"
#include "replay.h"
#include "trace.h"
#include "util/endian.h"

namespace perfbench {
namespace {

using pbio::Context;

constexpr int kConns = 4;
constexpr std::size_t kTemplates = 8;  // per format
/// Offered rates (msgs/s over all connections), measured in order, each
/// for an equal share of the ladder's time. Latency is reported at
/// kLadder[kRefRung].
constexpr double kLadder[] = {5000, 10000, 20000, 40000};
constexpr std::size_t kRefRung = 2;
/// A rung is sustained when its p99 meets this limit and its backlog does
/// not grow.
constexpr double kLatencyLimitUs = 1000.0;
/// The run is invalid when the client sends later than this share of the
/// limit at p99: the load generator, not the broker, set the latency.
constexpr double kMaxLagShare = 0.25;
/// An invalid measurement is not reported; the run measures again, up to
/// this many times in all. On a shared virtual machine a stolen CPU can
/// hold the client back for most of a measurement now and then.
constexpr int kAttempts = 3;
/// Latency percentiles are taken per interval and the median reported.
constexpr std::uint64_t kIntervalNs = 250'000'000;
/// Capacity phase: its share of the untraced run (the rungs share the
/// rest) and the requests it keeps in flight per connection.
constexpr double kCapacityShare = 0.2;
constexpr std::size_t kCapacityWindow = 64;
/// The capacity phase is invalid when the client spent less than this share
/// of it waiting for echoes: the client, not the broker, set the rate.
constexpr double kMinClientIdleShare = 0.25;

void append_framed(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> frame) {
  std::uint8_t hdr[4];
  pbio::store_uint(hdr, frame.size(), 4, pbio::ByteOrder::kLittle);
  out.insert(out.end(), hdr, hdr + 4);
  out.insert(out.end(), frame.begin(), frame.end());
}

/// A framed data frame: [u32 len][type, 7 zero bytes, u64 wire id][image].
std::vector<std::uint8_t> data_frame(Context::FormatId id, const std::vector<std::uint8_t>& img) {
  std::vector<std::uint8_t> f(pbio::kDataHeaderSize, 0);
  f[0] = pbio::kFrameData;
  pbio::store_uint(f.data() + pbio::kDataHeaderIdOffset, id, 8, pbio::ByteOrder::kLittle);
  f.insert(f.end(), img.begin(), img.end());
  std::vector<std::uint8_t> out;
  append_framed(out, f);
  return out;
}

struct Inputs {
  std::vector<PairInputs> pairs;
  std::vector<std::vector<std::uint8_t>> announce;  // framed, one per format
  std::vector<std::vector<std::uint8_t>> request;   // framed, one per template
  std::vector<std::vector<std::uint8_t>> expected;  // the echo each must get
};

Inputs make_inputs(const Options& opt) {
  std::mt19937_64 rng(opt.seed);
  Inputs in;
  Context ids;  // wire ids are format fingerprints
  for (pbio::bench::Size s : {pbio::bench::Size::k100B, pbio::bench::Size::k1KB}) {
    in.pairs.push_back(make_pair(pbio::bench::mech_spec(s), pbio::arch::abi_sparc_v8(),
                                 pbio::arch::abi_host(), kTemplates, rng));
    const PairInputs& p = in.pairs.back();
    std::vector<std::uint8_t> meta{pbio::kFrameFormat};
    const auto enc = pbio::fmt::encode_meta(p.wire);
    meta.insert(meta.end(), enc.begin(), enc.end());
    in.announce.emplace_back();
    append_framed(in.announce.back(), meta);
    const Context::FormatId id = ids.register_format(p.wire);
    for (const Template& t : p.templates) {
      in.request.push_back(data_frame(id, t.wire));
      // Echo mode hands the frame back verbatim: the oracle's wire image
      // (value::materialize for sparc_v8) is what must come back.
      in.expected.push_back(in.request.back());
    }
  }
  if (opt.plant_fault) plant_fault(in.expected.front());
  return in;
}

std::uint64_t mix(std::uint64_t x) {  // splitmix64
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct Pending {
  std::uint64_t due = 0;  // 0: sent as soon as queued, no lag sample
  std::uint32_t tmpl = 0;
  std::size_t end = 0;  // offset just past this request in the out stream
};

struct Conn {
  int fd = -1;
  std::vector<std::uint8_t> out;
  std::size_t out_sent = 0;
  std::deque<Pending> unsent;    // not yet fully handed to the kernel
  std::deque<Pending> inflight;  // sent, echo not yet verified
  std::vector<std::uint8_t> in;
  std::size_t in_used = 0;
};

struct ClientStats {
  std::uint64_t syscalls = 0;  // send + recv
  std::uint64_t echoes = 0;
  Intervals lag{kIntervalNs};  // due time to hand-off to the kernel
};

struct Client {
  const Inputs& in;
  Report& rep;
  Conn conns[kConns];
  int ep = -1;
  ClientStats st;

  Client(const Inputs& i, Report& r) : in(i), rep(r) {}
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() {
    for (Conn& c : conns) {
      if (c.fd < 0) continue;
      reset_on_close(c.fd);
      ::close(c.fd);
    }
    if (ep >= 0) ::close(ep);
  }

  bool connect_all(std::uint16_t port) {
    ep = ::epoll_create1(EPOLL_CLOEXEC);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    // Every client socket exists before the first connect, so the broker
    // accepts the connections into consecutive descriptors, which it
    // spreads evenly over its workers (a descriptor picks its worker).
    // Interleaving socket() with the broker's accepts would leave the split
    // to thread timing.
    for (Conn& c : conns) {
      c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (c.fd < 0) return false;
    }
    for (int i = 0; i < kConns; ++i) {
      Conn& c = conns[i];
      if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        return false;
      }
      int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<std::uint32_t>(i);
      if (::epoll_ctl(ep, EPOLL_CTL_ADD, c.fd, &ev) != 0) return false;
      c.in.resize(64 * 1024);
    }
    return true;
  }

  void queue_bytes(Conn& c, const std::vector<std::uint8_t>& bytes) {
    if (c.out_sent == c.out.size()) {
      c.out.clear();
      c.out_sent = 0;
    }
    c.out.insert(c.out.end(), bytes.begin(), bytes.end());
  }

  void queue_request(int conn, std::uint64_t due, std::uint32_t tmpl) {
    Conn& c = conns[conn];
    queue_bytes(c, in.request[tmpl]);
    c.unsent.push_back({due, tmpl, c.out.size()});
  }

  /// Hand queued bytes to the kernel; false on a socket error.
  bool flush(Conn& c) {
    while (c.out_sent < c.out.size()) {
      ssize_t n = 0;
      {
        trace::Span s("client.send");
        n = ::send(c.fd, c.out.data() + c.out_sent, c.out.size() - c.out_sent, MSG_NOSIGNAL);
      }
      ++st.syscalls;
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) return false;
      c.out_sent += static_cast<std::size_t>(n);
    }
    const std::uint64_t t = now_ns();
    while (!c.unsent.empty() && c.unsent.front().end <= c.out_sent) {
      if (c.unsent.front().due != 0) st.lag.add_latency(t - c.unsent.front().due);
      c.inflight.push_back(c.unsent.front());
      c.unsent.pop_front();
    }
    return true;
  }

  /// Read what arrived on `c` and verify complete echoes; latency samples
  /// go to `lat`. False on a socket error.
  bool drain(Conn& c, Intervals* lat) {
    while (true) {
      if (c.in.size() - c.in_used < 16 * 1024) c.in.resize(c.in.size() * 2);
      ssize_t n = 0;
      {
        trace::Span s("client.recv");
        n = ::recv(c.fd, c.in.data() + c.in_used, c.in.size() - c.in_used, MSG_DONTWAIT);
      }
      ++st.syscalls;
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) return false;
      c.in_used += static_cast<std::size_t>(n);
    }
    const std::uint64_t t = now_ns();
    trace::Span s("bench.verify");
    std::size_t off = 0;
    while (c.in_used - off >= 4) {
      const std::size_t len = pbio::load_uint(c.in.data() + off, 4, pbio::ByteOrder::kLittle);
      if (c.in_used - off < 4 + len) break;
      ++rep.attempted;
      if (c.inflight.empty()) {
        rep.fail();  // an echo nobody asked for
      } else {
        const Pending p = c.inflight.front();
        c.inflight.pop_front();
        const std::vector<std::uint8_t>& want = in.expected[p.tmpl];
        if (want.size() != 4 + len || std::memcmp(want.data(), c.in.data() + off, want.size()) != 0) {
          rep.fail();
        } else if (lat != nullptr) {
          lat->add_latency(t - p.due);
        }
        ++st.echoes;
      }
      off += 4 + len;
    }
    std::memmove(c.in.data(), c.in.data() + off, c.in_used - off);
    c.in_used -= off;
    return true;
  }

  std::size_t outstanding() const {
    std::size_t n = 0;
    for (const Conn& c : conns) n += c.unsent.size() + c.inflight.size();
    return n;
  }

  /// One spin: flush, poll, read. False on a socket error.
  bool spin(Intervals* lat) {
    for (Conn& c : conns) {
      if (c.out_sent < c.out.size() && !flush(c)) return false;
    }
    epoll_event evs[kConns];
    int n = 0;
    {
      trace::Span s("client.poll");
      n = ::epoll_wait(ep, evs, kConns, 0);
    }
    for (int i = 0; i < n; ++i) {
      if (!drain(conns[evs[i].data.u32], lat)) return false;
    }
    return true;
  }

  /// Spin until nothing is outstanding or `timeout_ns` passes.
  bool settle(std::uint64_t timeout_ns, Intervals* lat) {
    const std::uint64_t until = now_ns() + timeout_ns;
    while (outstanding() != 0 && now_ns() < until) {
      if (!spin(lat)) return false;
    }
    return outstanding() == 0;
  }
};

std::uint32_t next_template(const Client& cl, const Options& opt, std::uint64_t k) {
  return static_cast<std::uint32_t>(mix(opt.seed ^ (k << 8)) % cl.in.request.size());
}

struct Rung {
  double rate = 0;
  Intervals lat{kIntervalNs};
  std::uint64_t requests = 0;
  double backlog_growth = 0;  // outstanding at the rung's end / requests
  double p50 = 0, p99 = 0;
};

/// When a slice of set-ups is due at `now`, lets the client's requests in
/// flight come back, runs the slice and returns the pause's length in ns;
/// otherwise returns 0.
using Pause = std::function<std::uint64_t(std::uint64_t now)>;

/// Run the ladder, `rung_s` seconds per rung. `k` numbers requests across
/// the run so the seeded template sequence continues between ladders.
bool run_ladder(Client& cl, const Options& opt, double rung_s, std::uint64_t& k,
                const Pause& pause, std::vector<Rung>& rungs) {
  for (double rate : kLadder) {
    // Slices of set-ups fall between rungs, not inside them: requests
    // right after a pause meet its disturbance, and the client's send lag
    // and the tail latencies rose when every second of a rung had one.
    pause(now_ns());
    Rung r;
    r.rate = rate;
    const auto n = static_cast<std::uint64_t>(rate * rung_s);
    const std::uint64_t t0 = now_ns();
    r.lat.start(t0);
    cl.st.lag.start(t0);
    std::uint64_t i = 0;
    while (i < n) {
      const std::uint64_t now = now_ns();
      while (i < n && t0 + static_cast<std::uint64_t>(static_cast<double>(i) * 1e9 / rate) <= now) {
        const std::uint64_t due = t0 + static_cast<std::uint64_t>(static_cast<double>(i) * 1e9 / rate);
        cl.queue_request(static_cast<int>(k % kConns), due, next_template(cl, opt, k));
        ++i;
        ++k;
      }
      if (!cl.spin(&r.lat)) return false;
      const std::uint64_t t = now_ns();
      r.lat.tick(t);
      cl.st.lag.tick(t);
    }
    r.requests = n;
    r.backlog_growth = ratio(static_cast<double>(cl.outstanding()), static_cast<double>(n));
    if (!cl.settle(1'000'000'000, &r.lat)) return false;
    r.p50 = r.lat.p50_us();
    r.p99 = r.lat.p99_us();
    rungs.push_back(std::move(r));
  }
  return true;
}

struct Capacity {
  Intervals echoes{kIntervalNs};  // verified echoes per second
  double client_idle_share = 0;   // of the phase, spins that found nothing to do
};

/// Keep kCapacityWindow requests in flight on every connection for
/// `seconds`. False on a socket error or when the broker does not answer
/// every request.
bool run_capacity(Client& cl, const Options& opt, double seconds, std::uint64_t& k,
                  const Pause& pause, Capacity& cap) {
  const std::uint64_t t0 = now_ns();
  std::uint64_t end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  cap.echoes.start(t0);
  std::uint64_t idle_ns = 0, paused_ns = 0, t = t0;
  while (t < end) {
    if (const std::uint64_t d = pause(t); d != 0) {
      cap.echoes.skip(d);
      end += d;
      paused_ns += d;
      t = now_ns();
      continue;
    }
    std::size_t queued = 0;
    for (int c = 0; c < kConns; ++c) {
      const Conn& cn = cl.conns[c];
      for (std::size_t n = cn.unsent.size() + cn.inflight.size(); n < kCapacityWindow; ++n) {
        cl.queue_request(c, 0, next_template(cl, opt, k++));
        ++queued;
      }
    }
    const std::uint64_t e0 = cl.st.echoes;
    if (!cl.spin(nullptr)) return false;
    const std::uint64_t t1 = now_ns();
    if (queued == 0 && cl.st.echoes == e0) idle_ns += t1 - t;
    cap.echoes.add_work(cl.st.echoes - e0);
    cap.echoes.tick(t1);
    t = t1;
  }
  cap.client_idle_share = ratio(static_cast<double>(idle_ns), static_cast<double>(t - t0 - paused_ns));
  return cl.settle(1'000'000'000, nullptr);
}

struct Rig {
  Context ctx;
  std::unique_ptr<pbio::broker::Broker> broker;
  std::unique_ptr<Client> client;
};

std::unique_ptr<Rig> setup(const Inputs& in, Report& rep, bool& ok) {
  auto s = std::make_unique<Rig>();
  pbio::broker::Config cfg;
  cfg.workers = 2;
  cfg.on_data = pbio::broker::OnData::kEcho;
  cfg.decode = true;
  s->broker = std::make_unique<pbio::broker::Broker>(s->ctx, cfg);
  for (const PairInputs& p : in.pairs) {
    s->broker->expect(p.native.name, s->ctx.register_format(p.native));
  }
  leave_last_cpu();  // the workers inherit this mask; the client takes the last CPU
  ok = s->broker->start().is_ok();
  s->client = std::make_unique<Client>(in, rep);
  ok = ok && s->client->connect_all(s->broker->port());
  if (!ok) return s;
  // Announce both formats on every connection and round-trip one record of
  // each, so set-up covers learning and compiling both.
  for (int c = 0; c < kConns; ++c) {
    for (const auto& a : in.announce) s->client->queue_bytes(s->client->conns[c], a);
    for (std::size_t p = 0; p < in.pairs.size(); ++p) {
      s->client->queue_request(c, now_ns(), static_cast<std::uint32_t>(p * kTemplates + c));
    }
  }
  ok = s->client->settle(5'000'000'000, nullptr);
  return s;
}

pbio::broker::BrokerStats delta(const pbio::broker::BrokerStats& a,
                                const pbio::broker::BrokerStats& b) {
  pbio::broker::BrokerStats d;
  d.recv_syscalls = b.recv_syscalls - a.recv_syscalls;
  d.send_syscalls = b.send_syscalls - a.send_syscalls;
  d.frames_in = b.frames_in - a.frames_in;
  d.decoded = b.decoded - a.decoded;
  d.pauses = b.pauses - a.pauses;
  d.shed_connections = b.shed_connections - a.shed_connections;
  d.shed_inflight = b.shed_inflight - a.shed_inflight;
  d.protocol_errors = b.protocol_errors - a.protocol_errors;
  return d;
}

}  // namespace

void run_broker_open(const Options& opt, Report& rep) {
  const Inputs in = make_inputs(opt);
  std::unique_ptr<Rig> rig;
  bool setup_ok = true;
  const auto one_setup = [&](bool keep) {
    const std::uint64_t t0 = now_ns();
    bool ok = false;
    auto s = setup(in, rep, ok);
    const double dt = static_cast<double>(now_ns() - t0) / 1e9;
    setup_ok = setup_ok && ok;
    if (keep) {
      rig = std::move(s);
    } else {
      s->client.reset();
      s->broker->stop();
    }
    return dt;
  };
  SetupTimer setups;
  setups.first_burst(one_setup);
  if (!setup_ok) {
    rep.fail();
    return;
  }
  trace::set_role("client");
  pin_to_cpu_from_end(0);
  Client& cl = *rig->client;
  // Slices of set-ups, in untraced runs only. Requests that do not come
  // back count as failed at the end.
  const Pause pause = [&](std::uint64_t now) -> std::uint64_t {
    if (opt.trace || !setups.due(now)) return 0;
    const std::uint64_t t0 = now_ns();
    cl.settle(1'000'000'000, nullptr);
    setups.slice(one_setup);
    pin_to_cpu_from_end(0);  // set-up gave this thread the broker's CPUs
    return now_ns() - t0;
  };
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const double capacity_s = untraced_s * kCapacityShare;
  const double rung_s = (untraced_s - capacity_s) / static_cast<double>(std::size(kLadder));
  std::uint64_t k = kConns;

  const auto b0 = rig->broker->stats();
  std::vector<Rung> rungs;
  Capacity cap;
  double lag_p99 = 0;
  std::uint64_t lag_n = 0;
  bool ok = true;
  int attempt = 1;
  for (;; ++attempt) {
    rungs.clear();
    cap = Capacity();
    cl.st.lag = Intervals(kIntervalNs);
    ok = run_ladder(cl, opt, rung_s, k, pause, rungs);
    lag_p99 = cl.st.lag.p99_us();
    lag_n = cl.st.lag.samples();
    ok = ok && run_capacity(cl, opt, capacity_s, k, pause, cap);
    rep.invalid.clear();
    if (!ok) break;
    if (lag_p99 > kMaxLagShare * kLatencyLimitUs) {
      rep.invalid = "client send lag p99 " + std::to_string(lag_p99) + " us exceeds " +
                    std::to_string(kMaxLagShare * kLatencyLimitUs) + " us";
    } else if (cap.client_idle_share < kMinClientIdleShare) {
      rep.invalid = "client idle for " + std::to_string(cap.client_idle_share) +
                    " of the capacity phase, under " + std::to_string(kMinClientIdleShare) +
                    ": the client, not the broker, set the rate";
    }
    if (rep.invalid.empty() || attempt == kAttempts) break;
    std::fprintf(stderr, "perfbench: broker_open measurement %d invalid, measuring again: %s\n",
                 attempt, rep.invalid.c_str());
  }

  // Traced half: the ladder again; the layer counters cover it alone.
  std::vector<Rung> traced;
  pbio::broker::BrokerStats bd{};
  std::uint64_t sysd = 0, echoesd = 0;
  double hits = 0, misses = 0;
  if (ok && opt.trace) {
    const auto b1 = rig->broker->stats();
    const auto pool1 = rig->broker->pool_stats();
    const std::uint64_t sys1 = cl.st.syscalls, e1 = cl.st.echoes;
    cl.st.lag = Intervals(kIntervalNs);
    trace::reset();
    trace::enable(true);
    ok = run_ladder(cl, opt, rung_s, k, pause, traced);
    trace::enable(false);
    trace::stop();
    bd = delta(b1, rig->broker->stats());
    const auto pool2 = rig->broker->pool_stats();
    hits = static_cast<double>(pool2.hits - pool1.hits);
    misses = static_cast<double>(pool2.misses - pool1.misses);
    sysd = cl.st.syscalls - sys1;
    echoesd = cl.st.echoes - e1;
  }
  if (!ok) rep.fail();
  // Whatever the client sent and never got back counts as failed.
  rep.attempted += cl.outstanding();
  const auto final_stats = rig->broker->stats();
  const auto whole = delta(b0, final_stats);
  rep.fail(cl.outstanding() + whole.shed_connections + whole.shed_inflight + whole.protocol_errors);
  const double last_lag_p99 = cl.st.lag.p99_us();  // the traced ladder's, in a traced run
  rig->client.reset();
  rig->broker->stop();
  if (!setup_ok) rep.fail();
  if (rungs.size() != std::size(kLadder)) return;

  // The highest rung that met the limit. Not necessarily every lower one
  // did: at low rates idle CPUs sleep, and waking them shows in the tail.
  double sustained = 0;
  for (const Rung& r : rungs) {
    if (r.p99 <= kLatencyLimitUs && r.backlog_growth <= 0.01) sustained = r.rate;
  }
  Rung& ref = rungs[kRefRung];

  rep.set_e2e("records_per_s", cap.echoes.rate(), "1/s", cap.echoes.intervals());
  rep.set_e2e("latency_p50_us", ref.p50, "us", ref.lat.samples());
  rep.set_info("latency_p99_us", ref.p99, "us", ref.lat.samples());
  rep.set_e2e("setup_s", setups.median_s(), "s", setups.runs());
  rep.set_info("sustained_rate", sustained, "msg/s");
  rep.set_info("latency_limit_us", kLatencyLimitUs, "us");
  for (Rung& r : rungs) {
    const std::string tag = "rate_" + std::to_string(static_cast<int>(r.rate));
    rep.set_info(tag + ".p50_us", r.p50, "us", r.lat.samples());
    rep.set_info(tag + ".p99_us", r.p99, "us", r.lat.samples());
  }
  rep.set_info("client.send_lag_p99_us", lag_p99, "us", lag_n);
  rep.set_info("client.capacity_idle_share", cap.client_idle_share, "ratio");
  rep.set_info("measurements", attempt, "count");
  rep.set_info("broker.sheds", static_cast<double>(whole.shed_connections + whole.shed_inflight),
               "count");
  if (!opt.trace) return;

  double growth = 0;
  for (const Rung& r : traced) growth = std::max(growth, r.backlog_growth);
  const double frames = static_cast<double>(bd.frames_in);
  rep.set_layer("broker.recv_syscalls_per_msg", ratio(static_cast<double>(bd.recv_syscalls), frames));
  rep.set_layer("broker.send_syscalls_per_msg", ratio(static_cast<double>(bd.send_syscalls), frames));
  rep.set_layer("broker.frames_per_recv", ratio(frames, static_cast<double>(bd.recv_syscalls)));
  rep.set_layer("broker.decoded_share", ratio(static_cast<double>(bd.decoded), frames));
  rep.set_layer("broker.pool_hit_ratio", ratio(hits, hits + misses));
  rep.set_layer("broker.pauses", static_cast<double>(bd.pauses));
  rep.set_layer("broker.sheds", static_cast<double>(bd.shed_connections + bd.shed_inflight));
  rep.set_layer("broker.protocol_errors", static_cast<double>(bd.protocol_errors));
  rep.set_layer("client.send_lag_p99_us", last_lag_p99);
  rep.set_layer("client.syscalls_per_msg", ratio(static_cast<double>(sysd), static_cast<double>(echoesd)));
  rep.set_layer("client.backlog_growth", growth);
  rep.set_layer("bench.unattributed_share", trace::unattributed_share("client"));
  const double traced_p50 = traced.size() > kRefRung ? traced[kRefRung].p50 : 0.0;
  rep.set_layer("bench.trace_overhead_share", ratio(traced_p50, ref.p50) - 1.0);

  std::vector<const PairInputs*> pairs;
  for (const PairInputs& p : in.pairs) pairs.push_back(&p);
  replay_layers(pairs, rep);
}

}  // namespace perfbench
