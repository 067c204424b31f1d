/// \file replay.hpp
/// Gate-by-gate simulation through the public package calls, with one span
/// per call: qc::makeOperationDD (gate build), dd::Package::multiply (the
/// matrix-vector kernel) and the reference swap that may trigger the
/// package's automatic garbage collection.  It performs the same steps as
/// qc::Simulator::step for an exact-structure run, so the traced run can
/// split per-gate time by layer without spans inside the program.
#pragma once

#include "harness.hpp"

#include "qc/simulator.hpp"

namespace perf {

template <class System> struct ReplayResult {
  typename qadd::dd::Package<System>::VEdge state{}; ///< carries one reference
  double buildSeconds = 0.0;
  double multiplySeconds = 0.0;
  double gcSeconds = 0.0;
};

template <class System>
ReplayResult<System> replaySteps(qadd::dd::Package<System>& package,
                                 const qadd::qc::Circuit& circuit, Tracer* tracer,
                                 Tracer::Id parent, std::uint64_t op) {
  package.setGcWatermark(typename qadd::qc::Simulator<System>::Options{}.gcNodeThreshold);
  ReplayResult<System> result;
  result.state = package.makeZeroState();
  package.incRef(result.state);
  for (const qadd::qc::Operation& operation : circuit.operations()) {
    const auto t0 = Clock::now();
    const auto gate = qadd::qc::makeOperationDD(package, operation);
    const auto t1 = Clock::now();
    const auto updated = package.multiply(gate, result.state);
    const auto t2 = Clock::now();
    const std::size_t gcRunsBefore = package.gcRuns();
    package.incRef(updated);
    package.decRef(result.state); // may auto-GC at the watermark
    result.state = updated;
    const auto t3 = Clock::now();
    result.buildSeconds += secondsBetween(t0, t1);
    result.multiplySeconds += secondsBetween(t1, t2);
    const bool collected = package.gcRuns() != gcRunsBefore;
    if (collected) {
      result.gcSeconds += secondsBetween(t2, t3);
    }
    if (tracer != nullptr) {
      tracer->record("qc.makeOperationDD", parent, op, t0, t1);
      tracer->record("core.multiply", parent, op, t1, t2);
      if (collected) {
        tracer->record("core.gc", parent, op, t2, t3);
      }
    }
  }
  return result;
}

} // namespace perf
