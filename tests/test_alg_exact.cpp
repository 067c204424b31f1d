/// \file test_alg_exact.cpp
/// Pins the exact-plane results of the benchmark's `alg-exact` circuits:
/// Grover n=11 (marked 0x4D5), the Clifford+T GSE with 2 system and 3
/// precision qubits (eigenstates 1 and 2) and BWT depth 5 with 8 steps.  For
/// each, a fresh algebraic simulator's final state must give the recorded
/// FNV-1a 64 of its QDDS bytes, and the package's word-kernel tallies must
/// keep their recorded counts: a change to the BigInt or ring arithmetic may
/// make these runs faster, never change what they compute or which
/// operations stay on the word-size fast paths.
#include "algorithms/bwt.hpp"
#include "algorithms/grover.hpp"
#include "algorithms/gse.hpp"
#include "core/algebraic_system.hpp"
#include "io/snapshot.hpp"
#include "qc/simulator.hpp"
#include "reference.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace {

using namespace qadd;

struct Pinned {
  const char* name;
  qc::Circuit circuit;
  std::uint64_t stateHash;    ///< FNV-1a 64 of the final state's QDDS bytes
  std::uint64_t kernelHits;   ///< AlgebraicSystem::smallPathHits()
  std::uint64_t kernelSpills; ///< AlgebraicSystem::smallPathSpills()
};

qc::Circuit gseCircuit(std::uint64_t eigenstate) {
  algos::GseOptions options;
  options.systemQubits = 2;
  options.precisionQubits = 3;
  options.eigenstate = eigenstate;
  return algos::gse(options);
}

TEST(AlgExactWorkload, FinalStatesAndKernelTalliesArePinned) {
  const Pinned pinned[] = {
      {"grover11(0x4D5)", algos::grover({11, 0x4D5, 0}), 0xd1942900e14a1e31ULL, 3336, 18104},
      {"gse2x3(1)", gseCircuit(1), 0x15d52235dd756628ULL, 4850, 49625},
      {"gse2x3(2)", gseCircuit(2), 0xb790d07560c23e99ULL, 4990, 49501},
      {"bwt5x8", algos::bwt({5, 8}), 0xcf76807bc8c361c2ULL, 49111, 2157},
  };
  for (const Pinned& run : pinned) {
    SCOPED_TRACE(run.name);
    qc::Simulator<dd::AlgebraicSystem> simulator(run.circuit);
    simulator.run();
    EXPECT_EQ(reference::fnv1a(io::saveVector(simulator.package(), simulator.state())),
              run.stateHash);
    EXPECT_EQ(simulator.package().system().smallPathHits(), run.kernelHits);
    EXPECT_EQ(simulator.package().system().smallPathSpills(), run.kernelSpills);
  }
}

} // namespace
