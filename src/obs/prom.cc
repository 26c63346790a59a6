#include "obs/prom.h"

#include <cmath>
#include <cstdio>

namespace pbio::obs {

namespace {

// Doubles reaching the exposition (quantiles) must be finite: Prometheus
// parses "NaN" but alerting on it is a foot-gun, and our values are
// nanosecond magnitudes where 0 is the honest "no data" answer.
void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

std::string prom_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (name.empty() || (name[0] >= '0' && name[0] <= '9')) out += '_';
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string to_prometheus(const Snapshot& snap) {
  std::string out;
  out.reserve(4096);
  for (const CounterSample& c : snap.counters) {
    const std::string n = prom_name(c.name);
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(c.value) + "\n";
  }
  for (const HistogramSample& h : snap.histograms) {
    const std::string n = prom_name(h.name);
    out += "# TYPE " + n + " summary\n";
    for (const auto& [label, p] :
         {std::pair<const char*, double>{"0.5", 0.5},
          {"0.99", 0.99},
          {"0.999", 0.999}}) {
      out += n + "{quantile=\"" + label + "\"} ";
      append_double(out, static_cast<double>(h.percentile_ns(p)));
      out += "\n";
    }
    out += n + "_sum " + std::to_string(h.sum_ns) + "\n";
    out += n + "_count " + std::to_string(h.count) + "\n";
  }
  for (const CounterSample& g : snap.gauges) {
    const std::string n = prom_name(g.name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + std::to_string(g.value) + "\n";
  }
  return out;
}

}  // namespace pbio::obs
