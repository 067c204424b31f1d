#include "numeric/complex_table.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

namespace qadd::num {
namespace {

TEST(ComplexTable, ZeroAndOneArePreinterned) {
  ComplexTable table(0.0);
  EXPECT_EQ(table.lookup(ComplexValue::zero()), table.zeroRef());
  EXPECT_EQ(table.lookup(ComplexValue::one()), table.oneRef());
  EXPECT_EQ(table.size(), 2U);
}

TEST(ComplexTable, ExactModeDistinguishesUlps) {
  ComplexTable table(0.0);
  const double x = 1.0 / std::sqrt(2.0);
  const double xUlp = std::nextafter(x, 1.0);
  const ComplexRef a = table.lookup({x, 0.0});
  const ComplexRef b = table.lookup({xUlp, 0.0});
  EXPECT_NE(a, b) << "epsilon = 0 must be bit-exact";
  EXPECT_EQ(table.lookup({x, 0.0}), a);
}

TEST(ComplexTable, ToleranceUnifiesNearbyValues) {
  ComplexTable table(1e-6);
  const ComplexRef a = table.lookup({0.5, 0.25});
  const ComplexRef b = table.lookup({0.5 + 4e-7, 0.25 - 4e-7});
  EXPECT_EQ(a, b);
  const ComplexRef c = table.lookup({0.5 + 5e-6, 0.25});
  EXPECT_NE(a, c);
}

TEST(ComplexTable, ValuesNearZeroSnapToZero) {
  // The mechanism behind the paper's epsilon = 1e-3 zero-vector collapse.
  ComplexTable table(1e-3);
  EXPECT_EQ(table.lookup({5e-4, -5e-4}), table.zeroRef());
  EXPECT_NE(table.lookup({5e-3, 0.0}), table.zeroRef());
}

TEST(ComplexTable, ValuesNearOneSnapToOne) {
  ComplexTable table(1e-10);
  EXPECT_EQ(table.lookup({1.0 + 1e-11, -1e-11}), table.oneRef());
}

TEST(ComplexTable, FirstInsertedWins) {
  ComplexTable table(1e-4);
  const ComplexRef a = table.lookup({0.70710, 0.0});
  const ComplexRef b = table.lookup({0.70715, 0.0});
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(table.value(b).re, 0.70710); // canonical entry is the first one
}

TEST(ComplexTable, NegativeCoordinatesAndCellBoundaries) {
  ComplexTable table(1e-2);
  // Values straddling a grid cell boundary must still unify.
  const ComplexRef a = table.lookup({-0.0100001, 0.0});
  const ComplexRef b = table.lookup({-0.0099999, 0.0});
  EXPECT_EQ(a, b);
}

TEST(ComplexTable, ValuesBeyondTheGridRange) {
  // |value| / cell beyond the int64 grid (PerGate pruning at ε > 0 produces
  // such weights).  They intern, unify with themselves, and stay apart from
  // each other and from ordinary values; the sanitizer build checks that the
  // grid arithmetic stays defined.
  ComplexTable table(1e-10);
  const double huge = 1e300;
  const ComplexRef a = table.lookup({huge, 0.0});
  const ComplexRef b = table.lookup({-huge, 1.0});
  const ComplexRef c = table.lookup({0.5, huge});
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  EXPECT_EQ(table.lookup({huge, 0.0}), a);
  EXPECT_EQ(table.lookup({-huge, 1.0}), b);
  EXPECT_EQ(table.lookup({0.5, huge}), c);
  EXPECT_NE(table.lookup({0.5, 0.0}), c);
}

TEST(ComplexTable, RejectsInvalidEpsilon) {
  EXPECT_THROW(ComplexTable(-1.0), std::invalid_argument);
  EXPECT_THROW(ComplexTable(std::nan("")), std::invalid_argument);
}

TEST(ComplexTable, SizeCountsDistinctValues) {
  ComplexTable table(0.0);
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  for (int i = 0; i < 100; ++i) {
    (void)table.lookup({d(rng), d(rng)});
  }
  EXPECT_EQ(table.size(), 102U); // 100 random + 0 + 1
  // Re-interning the same values does not grow the table.
  std::mt19937_64 rng2(3);
  for (int i = 0; i < 100; ++i) {
    (void)table.lookup({d(rng2), d(rng2)});
  }
  EXPECT_EQ(table.size(), 102U);
}

TEST(WeightHandle, MintingStopsBelowTheReservedValue) {
  // Both weight tables mint handles through mintHandle(); the all-ones value
  // marks an empty slot, so the last mintable handle is 2^32 - 2.
  EXPECT_EQ(mintHandle(0), 0U);
  EXPECT_EQ(mintHandle(kMaxHandle), 0xFFFFFFFEU);
  EXPECT_NE(mintHandle(kMaxHandle), kNoHandle);
  EXPECT_THROW((void)mintHandle(kMaxHandle + 1), std::length_error);
  EXPECT_THROW((void)mintHandle(std::size_t{1} << 40), std::length_error);
}

TEST(ComplexValue, Arithmetic) {
  const ComplexValue a{1.0, 2.0};
  const ComplexValue b{3.0, -1.0};
  EXPECT_EQ((a + b), (ComplexValue{4.0, 1.0}));
  EXPECT_EQ((a - b), (ComplexValue{-2.0, 3.0}));
  EXPECT_EQ((a * b), (ComplexValue{5.0, 5.0}));
  const ComplexValue q = a / b;
  EXPECT_NEAR(q.re, 0.1, 1e-12);
  EXPECT_NEAR(q.im, 0.7, 1e-12);
  EXPECT_EQ(a.conj(), (ComplexValue{1.0, -2.0}));
  EXPECT_DOUBLE_EQ(a.squaredMagnitude(), 5.0);
}

TEST(ComplexValue, ApproxEqualPerComponent) {
  EXPECT_TRUE(ComplexValue::approxEqual({1.0, 1.0}, {1.0 + 1e-9, 1.0 - 1e-9}, 1e-8));
  EXPECT_FALSE(ComplexValue::approxEqual({1.0, 1.0}, {1.0 + 2e-8, 1.0}, 1e-8));
  EXPECT_TRUE(ComplexValue::approxEqual({1.0, 1.0}, {1.0, 1.0}, 0.0));
}

/// Parameterized sweep over epsilons: interning is idempotent and value()
/// returns something within epsilon of the query.
class ComplexTableEpsilons : public ::testing::TestWithParam<double> {};

TEST_P(ComplexTableEpsilons, LookupIsIdempotentAndClose) {
  const double epsilon = GetParam();
  ComplexTable table(epsilon);
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  for (int i = 0; i < 500; ++i) {
    const ComplexValue v{d(rng), d(rng)};
    const ComplexRef ref = table.lookup(v);
    EXPECT_EQ(table.lookup(table.value(ref)), ref);
    EXPECT_LE(std::abs(table.value(ref).re - v.re), epsilon);
    EXPECT_LE(std::abs(table.value(ref).im - v.im), epsilon);
  }
}

INSTANTIATE_TEST_SUITE_P(Epsilons, ComplexTableEpsilons,
                         ::testing::Values(0.0, 1e-20, 1e-15, 1e-10, 1e-5, 1e-3));

/// Brute-force model of BasicComplexTable's lookup contract, written from
/// the spec rather than from the table's data structure.  Exact mode (ε below
/// 2^-40): snap to 0 or 1 within a positive ε, else the first entry in
/// insertion order that compares equal.  Tolerance mode: the first entry
/// within ε in the 3×3 cell neighbourhood, cells visited in (dx, dy) order
/// and insertion order within a cell.
template <class FloatT> class ReferenceTable {
public:
  using Value = BasicComplexValue<FloatT>;
  using Cell = std::pair<std::int64_t, std::int64_t>;

  explicit ReferenceTable(FloatT epsilon)
      : epsilon_(epsilon), exact_(epsilon < static_cast<FloatT>(0x1p-40)) {
    insert(Value::zero());
    insert(Value::one());
  }

  ComplexRef lookup(Value value) {
    if (exact_) {
      if (epsilon_ > 0) {
        for (const ComplexRef snap : {ComplexRef{0}, ComplexRef{1}}) {
          if (Value::approxEqual(value, entries_[snap], epsilon_)) {
            return unify(snap, value);
          }
        }
      }
      for (std::size_t ref = 0; ref < entries_.size(); ++ref) {
        if (entries_[ref] == value) {
          return static_cast<ComplexRef>(ref);
        }
      }
      return insert(value);
    }
    const Cell center = cellOf(value);
    std::size_t bestRank = 9;
    std::size_t best = 0;
    for (std::size_t ref = 0; ref < entries_.size(); ++ref) {
      const std::size_t rank = neighbourRank(center, cells_[ref]);
      if (rank < bestRank && Value::approxEqual(entries_[ref], value, epsilon_)) {
        bestRank = rank;
        best = ref;
      }
    }
    return bestRank < 9 ? unify(static_cast<ComplexRef>(best), value) : insert(value);
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t nearMisses() const { return nearMisses_; }

  /// Entries per double-rounded bit key (exact mode) or per cell.
  [[nodiscard]] std::vector<std::uint64_t> occupancyHistogram(std::size_t maxBin = 8) const {
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> buckets;
    for (std::size_t ref = 0; ref < entries_.size(); ++ref) {
      if (exact_) {
        ++buckets[{bits(entries_[ref].re), bits(entries_[ref].im)}];
      } else {
        ++buckets[{static_cast<std::uint64_t>(cells_[ref].first),
                   static_cast<std::uint64_t>(cells_[ref].second)}];
      }
    }
    std::vector<std::uint64_t> histogram(maxBin + 1, 0);
    for (const auto& [key, count] : buckets) {
      ++histogram[std::min(count, maxBin)];
    }
    return histogram;
  }

private:
  ComplexRef insert(Value value) {
    entries_.push_back(value);
    cells_.push_back(exact_ ? Cell{} : cellOf(value));
    return static_cast<ComplexRef>(entries_.size() - 1);
  }
  ComplexRef unify(ComplexRef ref, Value value) {
    if (obs::kEnabled && !(entries_[ref] == value)) {
      ++nearMisses_;
    }
    return ref;
  }
  /// Position of `cell` in the 3×3 probe order around `center`, 9 if outside.
  static std::size_t neighbourRank(Cell center, Cell cell) {
    std::size_t rank = 0;
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      for (std::int64_t dy = -1; dy <= 1; ++dy, ++rank) {
        if (cell == Cell{center.first + dx, center.second + dy}) {
          return rank;
        }
      }
    }
    return rank;
  }
  /// ⌊component / ε⌋, or the far sentinel −2^62−2 beyond ±2^62 or for NaN.
  [[nodiscard]] Cell cellOf(Value value) const {
    const auto index = [&](FloatT component) {
      const auto scaled = static_cast<double>(component / epsilon_);
      return scaled >= -0x1p62 && scaled < 0x1p62 ? static_cast<std::int64_t>(std::floor(scaled))
                                                  : -(std::int64_t{1} << 62) - 2;
    };
    return {index(value.re), index(value.im)};
  }
  static std::uint64_t bits(FloatT component) {
    double rounded = static_cast<double>(component);
    rounded = rounded == 0.0 ? 0.0 : rounded;
    std::uint64_t pattern = 0;
    std::memcpy(&pattern, &rounded, sizeof(pattern));
    return pattern;
  }

  FloatT epsilon_;
  bool exact_;
  std::uint64_t nearMisses_ = 0;
  std::vector<Value> entries_;
  std::vector<Cell> cells_;
};

/// Seeded query stream mixing fresh values, exact repeats, near repeats
/// (within and just beyond ε, or one ulp away), cell boundaries, values a
/// sub-double step apart (distinct only in long double), and the special
/// values −0.0, NaN and ±1e300 (the far-cell sentinel).
template <class FloatT>
std::vector<BasicComplexValue<FloatT>> referenceQueries(FloatT epsilon, std::uint64_t seed,
                                                        std::size_t count) {
  using Value = BasicComplexValue<FloatT>;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> pick(0, 9);
  std::uniform_int_distribution<int> steps(-3, 3);
  const FloatT nan = std::numeric_limits<FloatT>::quiet_NaN();
  const FloatT cell = epsilon > 0 ? epsilon : static_cast<FloatT>(1e-3);
  std::vector<Value> queries;
  const auto previous = [&] {
    return queries.empty() ? Value::one() : queries[rng() % queries.size()];
  };
  const auto nudge = [&](FloatT x) {
    switch (rng() % 4) {
    case 0:
      return x + static_cast<FloatT>(steps(rng)) * epsilon / 2; // within ε or just beyond
    case 1:
      return std::nextafter(x, static_cast<FloatT>(2));
    case 2:
      return x * (1 + static_cast<FloatT>(0x1p-60)); // below double resolution
    default:
      return x;
    }
  };
  const auto boundary = [&] {
    const FloatT edge = static_cast<FloatT>(steps(rng)) * cell;
    return rng() % 2 == 0 ? edge : std::nextafter(edge, static_cast<FloatT>(-2));
  };
  const auto special = [&] {
    const FloatT options[] = {-0.0, 0.0, nan, 1e300, -1e300, 0.5};
    return options[rng() % std::size(options)];
  };
  while (queries.size() < count) {
    switch (pick(rng)) {
    case 0:
    case 1:
    case 2:
      queries.push_back({static_cast<FloatT>(unit(rng)), static_cast<FloatT>(unit(rng))});
      break;
    case 3:
      queries.push_back(previous());
      break;
    case 4:
    case 5: {
      const Value base = previous();
      queries.push_back({nudge(base.re), nudge(base.im)});
      break;
    }
    case 6:
      queries.push_back({boundary(), boundary()});
      break;
    case 7:
      queries.push_back({boundary(), static_cast<FloatT>(unit(rng))});
      break;
    case 8:
      queries.push_back({special(), special()});
      break;
    default: // near the snapped 0 and 1
      queries.push_back({static_cast<FloatT>(rng() % 2) + static_cast<FloatT>(steps(rng)) *
                                                              epsilon / 4,
                         static_cast<FloatT>(steps(rng)) * epsilon / 4});
      break;
    }
  }
  return queries;
}

template <class FloatT> void expectMatchesReferenceModel(FloatT epsilon, std::uint64_t seed) {
  BasicComplexTable<FloatT> table(epsilon);
  ReferenceTable<FloatT> model(epsilon);
  const auto queries = referenceQueries(epsilon, seed, 6000);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const ComplexRef expected = model.lookup(queries[i]);
    ASSERT_EQ(table.lookup(queries[i]), expected)
        << "query " << i << " = (" << static_cast<double>(queries[i].re) << ", "
        << static_cast<double>(queries[i].im) << ")";
  }
  EXPECT_EQ(table.size(), model.size());
  EXPECT_GT(table.size(), 1500U); // several growth steps of any hash structure
  EXPECT_EQ(table.nearMissUnifications(), model.nearMisses());
  EXPECT_EQ(table.bucketOccupancyHistogram(), model.occupancyHistogram());
}

TEST(ComplexTable, MatchesReferenceModel) {
  for (const double epsilon : {0.0, 1e-20, 1e-10, 1e-3}) {
    SCOPED_TRACE(epsilon);
    expectMatchesReferenceModel<double>(epsilon, 41);
    expectMatchesReferenceModel<long double>(static_cast<long double>(epsilon), 43);
  }
}

} // namespace
} // namespace qadd::num
