/// \file micro_rings.cpp
/// Micro-benchmarks of the algebraic number tower: Z[omega] / Q[omega]
/// arithmetic, canonicalization (Algorithm 1), inversion (Algorithm 2's
/// workhorse) and GCD computation (Algorithm 3's workhorse) — against the
/// interned numeric complex table for context.  Each benchmark also reports
/// allocs_per_op via the operator-new probe (zero on the small-coefficient
/// configurations is the SSO acceptance criterion).
#include "alloc_probe.hpp"

#include "algebraic/euclidean.hpp"
#include "algebraic/qomega.hpp"
#include "numeric/complex_table.hpp"

#include <benchmark/benchmark.h>

#include <cmath>
#include <optional>
#include <random>
#include <vector>

namespace {

using namespace qadd;
using alg::QOmega;
using alg::ZOmega;
using benchprobe::AllocScope;

ZOmega randomZOmega(std::mt19937_64& rng, int bound) {
  std::uniform_int_distribution<std::int64_t> d(-bound, bound);
  return {BigInt{d(rng)}, BigInt{d(rng)}, BigInt{d(rng)}, BigInt{d(rng)}};
}

void BM_ZOmegaMul(benchmark::State& state) {
  std::mt19937_64 rng(3);
  const ZOmega a = randomZOmega(rng, static_cast<int>(state.range(0)));
  const ZOmega b = randomZOmega(rng, static_cast<int>(state.range(0)));
  AllocScope allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_ZOmegaMul)->Arg(100)->Arg(1000000);

void BM_QOmegaMulCanonicalize(benchmark::State& state) {
  std::mt19937_64 rng(5);
  const QOmega a{randomZOmega(rng, 1000), 3, BigInt{9}};
  const QOmega b{randomZOmega(rng, 1000), -2, BigInt{15}};
  AllocScope allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_QOmegaMulCanonicalize);

void BM_QOmegaAdd(benchmark::State& state) {
  std::mt19937_64 rng(7);
  const QOmega a{randomZOmega(rng, 1000), 3, BigInt{9}};
  const QOmega b{randomZOmega(rng, 1000), -2, BigInt{15}};
  AllocScope allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a + b);
  }
}
BENCHMARK(BM_QOmegaAdd);

void BM_QOmegaInverse(benchmark::State& state) {
  std::mt19937_64 rng(9);
  const QOmega a{randomZOmega(rng, static_cast<int>(state.range(0))), 2, BigInt{7}};
  AllocScope allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.inverse());
  }
}
BENCHMARK(BM_QOmegaInverse)->Arg(100)->Arg(100000);

void BM_ZOmegaGcd(benchmark::State& state) {
  std::mt19937_64 rng(11);
  const ZOmega common = randomZOmega(rng, 50);
  const ZOmega a = common * randomZOmega(rng, static_cast<int>(state.range(0)));
  const ZOmega b = common * randomZOmega(rng, static_cast<int>(state.range(0)));
  AllocScope allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(alg::gcdZOmega(a, b));
  }
}
BENCHMARK(BM_ZOmegaGcd)->Arg(10)->Arg(1000);

void BM_CanonicalAssociate(benchmark::State& state) {
  std::mt19937_64 rng(13);
  const QOmega a{randomZOmega(rng, 1000), 1};
  AllocScope allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(alg::canonicalAssociate(a));
  }
}
BENCHMARK(BM_CanonicalAssociate);

void BM_QOmegaToComplex(benchmark::State& state) {
  std::mt19937_64 rng(15);
  const QOmega a{randomZOmega(rng, 1000000), 11, BigInt{12345}};
  AllocScope allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.toComplex());
  }
}
BENCHMARK(BM_QOmegaToComplex);

void BM_ComplexTableLookup(benchmark::State& state) {
  num::ComplexTable table(1e-10);
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<num::ComplexValue> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back({d(rng), d(rng)});
  }
  std::size_t i = 0;
  AllocScope allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(values[i++ % values.size()]));
  }
}
BENCHMARK(BM_ComplexTableLookup);

/// Exact-mode (ε = 0) hits: every value is interned before the timed loop.
void BM_ComplexTableLookupExact(benchmark::State& state) {
  num::ComplexTable table(0.0);
  std::mt19937_64 rng(19);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<num::ComplexValue> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back({d(rng), d(rng)});
    (void)table.lookup(values.back());
  }
  std::size_t i = 0;
  AllocScope allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(values[i++ % values.size()]));
  }
}
BENCHMARK(BM_ComplexTableLookupExact);

/// Inserts only: every lookup interns a new value.  A fresh table every 4096
/// values keeps memory flat; its set-up is part of the timing and of
/// allocs_per_op.  Arg 0 is ε = 0 (bit-exact keys), arg k > 0 is ε = 10^-k.
void BM_ComplexTableInsert(benchmark::State& state) {
  const double epsilon = state.range(0) == 0 ? 0.0 : std::pow(10.0, -state.range(0));
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<num::ComplexValue> values;
  for (int i = 0; i < 4096; ++i) {
    values.push_back({d(rng), d(rng)});
  }
  std::optional<num::ComplexTable> table;
  std::size_t i = 0;
  AllocScope allocs(state);
  for (auto _ : state) {
    if (i % values.size() == 0) {
      table.emplace(epsilon);
    }
    benchmark::DoNotOptimize(table->lookup(values[i++ % values.size()]));
  }
}
BENCHMARK(BM_ComplexTableInsert)->Arg(0)->Arg(10);

} // namespace
