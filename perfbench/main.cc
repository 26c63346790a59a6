// perfbench — the repository benchmark binary. run.py builds and
// runs it; by hand:
//
//   perfbench --workload stream_hetero|stream_homo|broker_open|format_churn
//             --seed N --seconds S --trace 0|1
//             [--plant-fault] [--commit ID]
//
// Prints a provenance line, one line per metric, and as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from a traced run. Exit status: 0 when every output
// matched, 1 on any mismatch or failed operation, 2 on bad usage, 3 when a
// guard finds the run invalid (no result is printed then).
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "common.h"
#include "convert/kernels/kernels.h"
#include "vcode/jit_convert.h"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void pin_to_cpu_from_end(unsigned k) {
  const unsigned n = std::thread::hardware_concurrency();
  if (n <= k) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(n - 1 - k, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

void reset_on_close(int fd) {
  const linger l{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &l, sizeof l);
}

void leave_last_cpu() {
  const unsigned n = std::thread::hardware_concurrency();
  if (n < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned c = 0; c + 1 < n; ++c) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

namespace {

// Every per_layer metric in BENCHMARK.json with its unit, in the order
// printed. A workload that does not exercise a layer reports it as 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const LayerMetric kLayerMetrics[] = {
    {"pbio.writer.write_us", "us"},
    {"transport.send_syscalls_per_msg", "count"},
    {"transport.recv_syscalls_per_msg", "count"},
    {"pbio.reader.next_batch_us_per_msg", "us"},
    {"pbio.reader.frames_per_batch", "count"},
    {"util.pool.hit_ratio", "ratio"},
    {"pbio.message.decode_us_per_record", "us"},
    {"pbio.message.zero_copy_share", "ratio"},
    {"convert.dcg_us_per_record", "us"},
    {"convert.interp_us_per_record", "us"},
    {"baselines.mpilite_unpack_us_per_record", "us"},
    {"convert.interp_over_dcg", "ratio"},
    {"baselines.mpilite_over_interp", "ratio"},
    {"broker.recv_syscalls_per_msg", "count"},
    {"broker.send_syscalls_per_msg", "count"},
    {"broker.frames_per_recv", "count"},
    {"broker.decoded_share", "ratio"},
    {"broker.pool_hit_ratio", "ratio"},
    {"broker.pauses", "count"},
    {"broker.sheds", "count"},
    {"broker.protocol_errors", "count"},
    {"client.send_lag_p99_us", "us"},
    {"client.syscalls_per_msg", "count"},
    {"client.backlog_growth", "ratio"},
    {"fmt.decode_meta_us", "us"},
    {"pbio.context.register_us", "us"},
    {"convert.compile_plan_us", "us"},
    {"verify.verify_plan_us", "us"},
    {"vcode.compile_us", "us"},
    {"pbio.context.try_conversion_cold_us", "us"},
    {"pbio.context.try_conversion_warm_us", "us"},
    {"cache.shared_hit_ratio", "ratio"},
    {"cache.compiles_per_pair", "ratio"},
    {"cache.single_flight_waits", "count"},
    {"cache.negative_hits", "count"},
    {"pbio.format_service.lookup_us", "us"},
    {"bench.trace_overhead_share", "ratio"},
    {"bench.unattributed_share", "ratio"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload stream_hetero|stream_homo|broker_open|"
               "format_churn --seed N --seconds S --trace 0|1 [--plant-fault] "
               "[--commit ID]\n");
  return 2;
}

void print_metric(const char* kind, const std::string& name, const Report::Metric& m) {
  std::printf("%-5s %-40s %.6g %s", kind, name.c_str(), m.value, m.unit.c_str());
  if (m.samples != 0) std::printf(" (n=%llu)", static_cast<unsigned long long>(m.samples));
  std::printf("\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string commit = "unknown";
  int trace_flag = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--workload" && has) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has) {
      trace_flag = std::atoi(argv[++i]);
    } else if (a == "--plant-fault") {
      opt.plant_fault = true;
    } else if (a == "--commit" && has) {
      commit = argv[++i];
    } else {
      return usage();
    }
  }
  if ((trace_flag != 0 && trace_flag != 1) || opt.seconds <= 0) return usage();
  opt.trace = trace_flag == 1;
  std::signal(SIGPIPE, SIG_IGN);

  std::printf(
      "provenance {\"workload\": \"%s\", \"commit\": \"%s\", \"build_type\": \"%s\", "
      "\"pbio_obs\": %s, \"tval\": %s, \"kernel_isa\": \"%s\", \"nproc\": %u, "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d, \"plant_fault\": %s}\n",
      opt.workload.c_str(), commit.c_str(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_OBS ? "true" : "false", pbio::vcode::tval_enabled() ? "true" : "false",
      pbio::convert::kernels::to_string(pbio::convert::kernels::active_isa()),
      std::thread::hardware_concurrency(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, trace_flag, opt.plant_fault ? "true" : "false");

  Report rep;
  try {
    if (opt.workload == "stream_hetero") {
      run_stream(opt, true, rep);
    } else if (opt.workload == "stream_homo") {
      run_stream(opt, false, rep);
    } else if (opt.workload == "broker_open") {
      run_broker_open(opt, rep);
    } else if (opt.workload == "format_churn") {
      run_format_churn(opt, rep);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (rep.attempted == 0) rep.attempted = 1;  // a run that never started failed
  if (!rep.invalid.empty()) {
    std::fprintf(stderr, "perfbench: invalid run, not reported: %s\n", rep.invalid.c_str());
    return 3;
  }
  if (!opt.trace) rep.set_e2e("peak_rss_MB", peak_rss_mb(), "MB");

  if (!opt.trace) {
    for (const auto& [name, m] : rep.e2e) print_metric("e2e", name, m);
    for (const auto& [name, m] : rep.info) print_metric("info", name, m);
  }
  print_metric("info", "error_rate",
               {ratio(static_cast<double>(rep.failed), static_cast<double>(rep.attempted)),
                "ratio", rep.attempted});
  if (opt.trace) {
    for (const LayerMetric& m : kLayerMetrics) rep.layer[m.name].unit = m.unit;
    for (const LayerMetric& m : kLayerMetrics) print_metric("layer", m.name, rep.layer[m.name]);
  }

  const bool correct = rep.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const std::string& name, const Report::Metric& m) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  };
  if (opt.trace) {
    for (const LayerMetric& m : kLayerMetrics) emit(m.name, rep.layer[m.name]);
  } else {
    for (const auto& [name, m] : rep.e2e) emit(name, m);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
