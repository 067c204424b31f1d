/// \file deterministic.hpp
/// Process-wide deterministic-output mode for the telemetry emitters
/// (qadd::obs).  Structural series (node counts, bytes, table fills) are
/// run-deterministic, but wall-clock values and address-sensitive ones
/// (which depend on pointer hashes under ASLR) wobble between runs, which
/// used to force the byte-comparison tests to mask CSV columns.  With
/// deterministic mode on, the emitters write exactly these as 0:
///  - the sweep CSV's seconds and cachehitrate columns (eval::writeCsv);
///  - gc seconds and both unique tables' collision counts in the stats
///    table, JSON and CSV (eval::printStatsTable / writeStatsJson /
///    writeStatsCsv) and in the Prometheus exposition
///    (qadd_gc_seconds_total, qadd_unique_collisions_total);
///  - the timeline's seconds, cacheHitRate and uniqueCollisions fields
///    (Timeline::writeJson / writeCsv).
/// Unique-table collisions depend on addresses because the tables hash
/// child node pointers.
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
