// Shared plumbing for the perfbench workloads: options, the result report
// (end-to-end metrics, per-layer metrics, informational lines), sample
// statistics and the clock.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Corrupt one expected image before timing starts: the run must then
  /// report mismatches and exit nonzero (the oracle's own check).
  bool plant_fault = false;
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Raw latency samples in nanoseconds; percentiles by nearest rank.
class Samples {
 public:
  void add(std::uint64_t ns) { v_.push_back(ns); }
  std::size_t size() const { return v_.size(); }

  /// Value at quantile q (0..1) in microseconds; 0 with no samples.
  double quantile_us(double q) {
    if (v_.empty()) return 0.0;
    std::sort(v_.begin(), v_.end());
    const auto k = static_cast<std::size_t>(q * static_cast<double>(v_.size() - 1) + 0.5);
    return static_cast<double>(v_[k]) / 1e3;
  }

 private:
  std::vector<std::uint64_t> v_;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// A measurement split into fixed-length intervals of a caller-supplied
/// clock. Rates and latency percentiles are computed per interval and the
/// run reports their median, so a disturbance from outside the program
/// that hits a few intervals does not move the figure. The last, partial
/// interval is dropped.
class Intervals {
 public:
  explicit Intervals(std::uint64_t len_ns) : len_(len_ns) {}
  void start(std::uint64_t t) { t0_ = t; }
  void add_work(std::uint64_t n) { work_ += n; }
  void add_latency(std::uint64_t ns) {
    cur_.add(ns);
    ++samples_;
  }
  /// Close the interval once `t` has passed its end.
  void tick(std::uint64_t t);
  /// Leave `ns` of pause out of the current interval.
  void skip(std::uint64_t ns) { t0_ += ns; }

  double rate() const { return median(rates_); }  // work per second
  double p50_us() const { return median(p50_); }
  double p99_us() const { return median(p99_); }
  std::uint64_t samples() const { return samples_; }
  std::size_t intervals() const { return rates_.size(); }

 private:
  std::uint64_t len_;
  std::uint64_t t0_ = 0;
  std::uint64_t work_ = 0;
  std::uint64_t samples_ = 0;
  Samples cur_;
  std::vector<double> rates_, p50_, p99_;
};

inline void Intervals::tick(std::uint64_t t) {
  if (t - t0_ < len_) return;
  rates_.push_back(static_cast<double>(work_) * 1e9 / static_cast<double>(t - t0_));
  if (cur_.size() != 0) {
    p50_.push_back(cur_.quantile_us(0.50));
    p99_.push_back(cur_.quantile_us(0.99));
  }
  cur_ = Samples();
  work_ = 0;
  t0_ = t;
}

/// Everything one run reports. Workloads fill it; main.cc prints it.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;  // 0: not a sampled statistic
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // mismatches, error Status results, sheds, refusals
  /// Set when a guard finds the load generator, not the system under test,
  /// set the number: the run is invalid and prints no result.
  std::string invalid;

  std::map<std::string, Metric> e2e;    // BENCHMARK.json end_to_end names
  std::map<std::string, Metric> layer;  // BENCHMARK.json per_layer names
  std::map<std::string, Metric> info;   // workload-specific extras (printed only)

  void set_e2e(const std::string& n, double v, const char* unit, std::uint64_t samples = 0) {
    e2e[n] = {v, unit, samples};
  }
  /// The unit comes from main.cc's table of BENCHMARK.json's per_layer metrics.
  void set_layer(const std::string& n, double v) { layer[n].value = v; }
  void set_info(const std::string& n, double v, const char* unit, std::uint64_t samples = 0) {
    info[n] = {v, unit, samples};
  }
  void fail(std::uint64_t n = 1) { failed += n; }
};

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Pin the calling thread to one CPU, counted from the last, so the
/// benchmark's own threads keep their cores for the whole run.
void pin_to_cpu_from_end(unsigned k);
/// Let the calling thread (and threads it creates later) run on every CPU
/// but the last, which the load generator then keeps to itself.
void leave_last_cpu();

/// Make closing the TCP socket `fd` reset its connection rather than leave
/// it in TIME_WAIT, so that thousands of set-ups per run do not fill the
/// machine's port space and slow down every later connect.
void reset_on_close(int fd);

/// Set-up time: the median over every set-up of a first burst, whose last
/// set-up the run goes on with, and of short slices of set-ups spread over
/// the measured phases (untraced runs only). The workload pauses its load
/// for a slice and takes the pause off its clocks. On a shared virtual
/// machine one set-up's cost moves between states that last a second or
/// two (stream_homo's about 50 or about 75 us on the 4-vCPU development
/// host); a median over slices from the whole run follows the run's mix
/// of states, not the state one burst happens to meet.
constexpr double kSetupFirstBurstS = 0.25;
constexpr double kSetupSliceS = 0.04;
constexpr std::uint64_t kSetupEveryNs = 1'000'000'000;  // from one slice to the next
constexpr std::size_t kMaxSetupsPerBurst = 20000;

class SetupTimer {
 public:
  /// `fn(keep)` does one set-up and returns the seconds it took. The first
  /// burst's last call gets keep = true: the run goes on with that set-up.
  template <typename Fn>
  void first_burst(Fn&& fn) {
    burst(kSetupFirstBurstS, fn);
    t_.push_back(fn(true));
    next_ = now_ns() + kSetupEveryNs;
  }
  /// Whether the next slice is due at `t`.
  bool due(std::uint64_t t) const { return t >= next_; }
  /// Run one slice of set-ups (none kept); returns its length in ns.
  template <typename Fn>
  std::uint64_t slice(Fn&& fn) {
    const std::uint64_t t0 = now_ns();
    burst(kSetupSliceS, fn);
    const std::uint64_t t1 = now_ns();
    next_ = t1 + kSetupEveryNs;
    return t1 - t0;
  }
  double median_s() const { return median(t_); }
  std::uint64_t runs() const { return t_.size(); }

 private:
  template <typename Fn>
  void burst(double seconds, Fn& fn) {
    const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    for (std::size_t i = 0; i < kMaxSetupsPerBurst && now_ns() < end; ++i) t_.push_back(fn(false));
  }

  std::vector<double> t_;
  std::uint64_t next_ = 0;
};

// Workload entry points (one translation unit each).
void run_stream(const Options& opt, bool hetero, Report& rep);
void run_broker_open(const Options& opt, Report& rep);
void run_format_churn(const Options& opt, Report& rep);

}  // namespace perfbench
