// Benchmark-side tracing: spans recorded in perfbench's own code around
// each call into a library layer's public functions (nothing inside src/ is
// instrumented). Each thread sums its spans' durations per layer, and the
// time its outermost spans cover, in memory; totals() and
// unattributed_share() read them at the end.
//
// Off by default: Span then costs one predictable branch, so untraced runs
// — the only ones end-to-end metrics come from — pay nothing measurable.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench::trace {

void enable(bool on);
bool enabled();

/// Name the calling thread ("sender", "receiver", ...); the name keys the
/// per-thread coverage that bench.unattributed_share is computed from.
void set_role(const char* role);

/// Clear every thread's totals and open a new window. Call it
/// while tracing is off (threads only write their state from spans that
/// began with tracing on), then enable(true).
void reset();
/// Close the window opened by reset(). Read totals() once every traced
/// thread has finished its spans (joined, or is the caller).
void stop();

class Span {
 public:
  explicit Span(const char* layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* layer_ = nullptr;
  std::uint64_t t0_ = 0;
};

struct Totals {
  std::uint64_t total_ns = 0;  // sum of span durations
  std::uint64_t count = 0;
};

/// Per-layer totals merged across threads (call after worker threads end).
std::map<std::string, Totals> totals();

/// Share of `role`'s window wall time that no top-level span covers.
double unattributed_share(const char* role);

}  // namespace perfbench::trace
