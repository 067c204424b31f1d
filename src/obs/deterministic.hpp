/// \file deterministic.hpp
/// Process-wide deterministic-output mode for the telemetry emitters
/// (qadd::obs).  Counters repeat from run to run — nodes hash by their
/// insert serial, not their address — but wall-clock values wobble.  With deterministic mode on, the emitters write exactly these as 0:
///  - the sweep CSV's seconds column (eval::writeCsv);
///  - gc seconds in the stats table and JSON (eval::printStatsTable /
///    writeStatsJson) and in the Prometheus exposition
///    (qadd_gc_seconds_total);
///  - the timeline's seconds field (Timeline::writeJson / writeCsv).
///
/// The mode is read once from the QADD_OBS_DETERMINISTIC environment
/// variable (any value except "" and "0" enables it) and can be overridden
/// programmatically — the drivers map --obs-deterministic onto
/// setDeterministic(true).  It is independent of the QADD_OBS compile switch:
/// the wall-clock columns exist even with the counters compiled out.
#pragma once

namespace qadd::obs {

/// True iff deterministic-output mode is active (env or setDeterministic).
[[nodiscard]] bool deterministic();

/// Force the mode on or off, overriding the environment.
void setDeterministic(bool on);

} // namespace qadd::obs
