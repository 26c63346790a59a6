#include "trace.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "common.h"

namespace perfbench::trace {
namespace {

struct Acc {
  const char* layer;
  Totals t;
};

struct ThreadState {
  std::string role;
  std::vector<Acc> acc;
  int depth = 0;                 // spans open on this thread
  std::uint64_t covered_ns = 0;  // time under top-level spans
};

std::atomic<bool> g_on{false};
std::mutex g_mu;
std::vector<std::shared_ptr<ThreadState>> g_threads;
std::uint64_t g_window_t0 = 0;
std::uint64_t g_window_t1 = 0;
thread_local ThreadState* t_state = nullptr;

ThreadState& state() {
  if (t_state == nullptr) {
    auto st = std::make_shared<ThreadState>();
    std::lock_guard<std::mutex> lock(g_mu);
    g_threads.push_back(st);
    t_state = st.get();
  }
  return *t_state;
}

}  // namespace

// Release/acquire: a thread whose span sees tracing on also sees the
// reset() that preceded enable(true), so it never races with the clearing.
void enable(bool on) { g_on.store(on, std::memory_order_release); }
bool enabled() { return g_on.load(std::memory_order_acquire); }

void set_role(const char* role) { state().role = role; }

void reset() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (auto& t : g_threads) {
    t->acc.clear();
    t->covered_ns = 0;
  }
  g_window_t0 = now_ns();
  g_window_t1 = 0;
}

void stop() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_window_t1 = now_ns();
}

Span::Span(const char* layer) {
  if (!enabled()) return;
  layer_ = layer;
  ++state().depth;
  t0_ = now_ns();
}

Span::~Span() {
  if (layer_ == nullptr) return;
  const std::uint64_t dur = now_ns() - t0_;
  ThreadState& st = *t_state;
  Acc* a = nullptr;
  for (Acc& x : st.acc) {
    if (x.layer == layer_) a = &x;
  }
  if (a == nullptr) {
    st.acc.push_back({layer_, {}});
    a = &st.acc.back();
  }
  a->t.total_ns += dur;
  ++a->t.count;
  if (--st.depth == 0) st.covered_ns += dur;
}

std::map<std::string, Totals> totals() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, Totals> out;
  for (const auto& t : g_threads) {
    for (const Acc& a : t->acc) {
      Totals& o = out[a.layer];
      o.total_ns += a.t.total_ns;
      o.count += a.t.count;
    }
  }
  return out;
}

double unattributed_share(const char* role) {
  std::lock_guard<std::mutex> lock(g_mu);
  const std::uint64_t t1 = g_window_t1 != 0 ? g_window_t1 : now_ns();
  const double wall = static_cast<double>(t1 - g_window_t0);
  std::uint64_t covered = 0;
  for (const auto& t : g_threads) {
    if (t->role == role) covered += t->covered_ns;
  }
  if (wall <= 0.0) return 0.0;
  const double share = 1.0 - static_cast<double>(covered) / wall;
  return share < 0.0 ? 0.0 : share;
}

}  // namespace perfbench::trace
