// Prometheus text exposition (version 0.0.4) rendered from an obs
// Snapshot — the payload behind the broker's /metrics endpoint and
// `pbio_stat --prom`.
//
// Counters export as `counter`; histograms as `summary` with interpolated
// p50/p99/p999 quantiles plus the exact _sum (nanoseconds) and _count;
// gauges as `gauge`. Metric names are sanitized to the Prometheus charset
// ([a-zA-Z0-9_:]): every other byte — the '.' separators of pbio.* names,
// and anything a hostile format name smuggles into a per-format metric —
// becomes '_'.
#pragma once

#include <string>

#include "obs/obs.h"

namespace pbio::obs {

/// Sanitize one metric name to the Prometheus charset.
std::string prom_name(std::string_view name);

/// Render the whole snapshot as Prometheus text exposition format.
std::string to_prometheus(const Snapshot& snap);

}  // namespace pbio::obs
