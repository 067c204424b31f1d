/// \file exposition.hpp
/// Prometheus text-format rendering of the qadd::obs telemetry
/// (qadd::obs::renderPrometheus): the machine-readable metrics surface a
/// monitoring stack scrapes — and the exact payload a future qadd_serve will
/// answer on /metrics.  Format per the Prometheus exposition spec: one
/// "# HELP" + "# TYPE" pair per metric family, `counter` for monotonic event
/// counts (suffixed _total), `gauge` for snapshot values, labels for the
/// per-cache / per-table dimensions.
///
/// In deterministic-output mode (obs::deterministic) the wall-clock family
/// qadd_gc_seconds_total and the address-sensitive
/// qadd_unique_collisions_total render as 0, like every other emitter.
#pragma once

#include "obs/stats.hpp"

#include <iosfwd>
#include <string>
#include <string_view>

namespace qadd::obs {

class Timeline;

/// Escape a label value per the Prometheus exposition spec: backslash,
/// double-quote and newline become \\, \" and \n.  Every label value in the
/// families below goes through this, so exposition stays parseable even when
/// a label value comes from untrusted input (qadd_serve session names in
/// particular).
[[nodiscard]] std::string promEscapeLabel(std::string_view value);

/// Render one PackageStats snapshot.
void renderPrometheus(std::ostream& os, const PackageStats& stats);

/// renderPrometheus(stats) plus the timeline sampler's own families
/// (qadd_timeline_samples, qadd_timeline_dropped_total, and the gauges of
/// the most recent sample as qadd_timeline_last_*).
void renderPrometheus(std::ostream& os, const PackageStats& stats, const Timeline& timeline);

} // namespace qadd::obs
