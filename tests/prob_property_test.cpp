// Randomized property tests on the probability engine — invariants that
// must hold for ALL regions and range shapes, checked over random draws.
// Includes the batched-kernel equivalence contract: ProbKernel's
// region_probability_batch must agree with the scalar libm reference
// theorem1() to 1e-12 wherever the reference approximates, and must return
// exact Formula 3 bit for bit wherever the reference finds an invalid
// sample (identical fallback decisions).
#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "congestion/approx.hpp"
#include "congestion/irregular_grid.hpp"
#include "congestion/path_prob.hpp"
#include "congestion/prob_kernel.hpp"
#include "route/two_pin.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ficon {
namespace {

class ProbProperties : public ::testing::Test {
 protected:
  GridRect random_region(int g1, int g2) {
    const int x1 = rng_.uniform_int(0, g1 - 1);
    const int x2 = rng_.uniform_int(x1, g1 - 1);
    const int y1 = rng_.uniform_int(0, g2 - 1);
    const int y2 = rng_.uniform_int(y1, g2 - 1);
    return GridRect{x1, y1, x2, y2};
  }

  NetGridShape random_shape() {
    return NetGridShape{rng_.uniform_int(2, 24), rng_.uniform_int(2, 24),
                        rng_.chance(0.5)};
  }

  /// The paper's per-region policy computed on the scalar libm reference.
  /// kApprox: the policy reaches Theorem 1 and the reference theorem1() is
  /// valid. kFallback: it reaches Theorem 1 but the reference finds an
  /// invalid sample, so `value` is exact Formula 3. kExact: the policy
  /// answers without Theorem 1 (0, 1 or Formula 3).
  struct PolicyReference {
    enum Path { kExact, kApprox, kFallback };
    double value = 0.0;
    Path path = kExact;
  };

  PolicyReference reference_policy(const NetGridShape& s,
                                   const GridRect& region,
                                   const ApproxOptions& o) const {
    const GridRect r{std::max(region.xlo, 0), std::max(region.ylo, 0),
                     std::min(region.xhi, s.g1 - 1),
                     std::min(region.yhi, s.g2 - 1)};
    if (!r.valid()) return {0.0, PolicyReference::kExact};
    if (s.degenerate() || prob_.region_covers_pin(s, r) ||
        (r.xlo == 0 && r.xhi == s.g1 - 1) ||
        (r.ylo == 0 && r.yhi == s.g2 - 1)) {
      return {1.0, PolicyReference::kExact};
    }
    const double exact = prob_.region_probability_exact(s, r);
    if (s.g1 + s.g2 < o.small_range_threshold ||
        std::min(s.g1, s.g2) < o.narrow_range_threshold ||
        r.nx() + r.ny() <= o.small_region_threshold) {
      return {exact, PolicyReference::kExact};
    }
    const GridRect canonical = s.type2 ? mirror_region_y(s.g2, r) : r;
    const std::optional<double> approx = theorem1(s.g1, s.g2, canonical, o);
    return approx ? PolicyReference{*approx, PolicyReference::kApprox}
                  : PolicyReference{exact, PolicyReference::kFallback};
  }

  /// Scores `regions` in one batch and checks every entry against the
  /// reference: within 1e-12 where it approximates, bit-equal elsewhere.
  /// Returns how many regions took the invalid-sample fallback.
  int expect_batch_matches_reference(ProbKernel& kernel, const NetGridShape& s,
                                     const std::vector<GridRect>& regions) {
    std::vector<double> out(regions.size(), -1.0);
    kernel.region_probability_batch(s, regions, out);
    int fallbacks = 0;
    for (std::size_t i = 0; i < regions.size(); ++i) {
      const PolicyReference ref =
          reference_policy(s, regions[i], kernel.options());
      if (ref.path == PolicyReference::kApprox) {
        EXPECT_NEAR(out[i], ref.value, 1e-12)
            << "g=(" << s.g1 << ',' << s.g2 << ") t2=" << s.type2
            << " region " << regions[i];
      } else {
        EXPECT_EQ(out[i], ref.value)
            << "g=(" << s.g1 << ',' << s.g2 << ") t2=" << s.type2
            << " region " << regions[i];
      }
      if (ref.path == PolicyReference::kFallback) ++fallbacks;
    }
    return fallbacks;
  }

  /// Options under which every region that is not certain reaches
  /// Theorem 1 (no size-based exact fallbacks).
  static ApproxOptions theorem1_everywhere() {
    ApproxOptions o;
    o.small_range_threshold = 0;
    o.small_region_threshold = 0;
    o.narrow_range_threshold = 0;
    return o;
  }

  Rng rng_{2024};
  LogFactorialTable table_;
  PathProbability prob_{table_};
};

TEST_F(ProbProperties, ReversalSymmetry) {
  // Reversing every path (walking sink -> source) is a bijection, so a
  // region and its 180-degree rotation have equal crossing probability.
  for (int trial = 0; trial < 300; ++trial) {
    const NetGridShape s = random_shape();
    const GridRect r = random_region(s.g1, s.g2);
    const GridRect rotated{s.g1 - 1 - r.xhi, s.g2 - 1 - r.yhi,
                           s.g1 - 1 - r.xlo, s.g2 - 1 - r.ylo};
    EXPECT_NEAR(prob_.region_probability_exact(s, r),
                prob_.region_probability_exact(s, rotated), 1e-10)
        << "g=(" << s.g1 << ',' << s.g2 << ") region " << r;
  }
}

TEST_F(ProbProperties, TypeMirrorConsistency) {
  // A type II net is the y-mirror of a type I net: region probabilities
  // must match under the mirror map.
  for (int trial = 0; trial < 300; ++trial) {
    NetGridShape s = random_shape();
    s.type2 = true;
    NetGridShape mirrored = s;
    mirrored.type2 = false;
    const GridRect r = random_region(s.g1, s.g2);
    EXPECT_NEAR(prob_.region_probability_exact(s, r),
                prob_.region_probability_exact(mirrored,
                                               mirror_region_y(s.g2, r)),
                1e-10);
  }
}

TEST_F(ProbProperties, MonotoneUnderRegionGrowth) {
  for (int trial = 0; trial < 300; ++trial) {
    const NetGridShape s = random_shape();
    const GridRect r = random_region(s.g1, s.g2);
    const GridRect grown{std::max(0, r.xlo - 1), std::max(0, r.ylo - 1),
                         std::min(s.g1 - 1, r.xhi + 1),
                         std::min(s.g2 - 1, r.yhi + 1)};
    EXPECT_LE(prob_.region_probability_exact(s, r),
              prob_.region_probability_exact(s, grown) + 1e-12);
  }
}

TEST_F(ProbProperties, UnionBoundOnStripeSplits) {
  // Splitting a full-height stripe vertically: every path crosses the
  // stripe, so P(A) + P(B) >= 1; each part alone is <= 1.
  for (int trial = 0; trial < 200; ++trial) {
    const NetGridShape s = random_shape();
    const int x1 = rng_.uniform_int(0, s.g1 - 1);
    const int x2 = rng_.uniform_int(x1, s.g1 - 1);
    const int split = rng_.uniform_int(0, s.g2 - 2);
    const GridRect lower{x1, 0, x2, split};
    const GridRect upper{x1, split + 1, x2, s.g2 - 1};
    const GridRect full{x1, 0, x2, s.g2 - 1};
    const double pl = prob_.region_probability_exact(s, lower);
    const double pu = prob_.region_probability_exact(s, upper);
    EXPECT_NEAR(prob_.region_probability_exact(s, full), 1.0, 1e-12);
    EXPECT_GE(pl + pu + 1e-12, 1.0);
    EXPECT_LE(pl, 1.0 + 1e-12);
    EXPECT_LE(pu, 1.0 + 1e-12);
  }
}

TEST_F(ProbProperties, CellProbabilitiesBoundRegionProbability) {
  // max cell P in region <= region P <= sum of cell Ps (union bound).
  for (int trial = 0; trial < 120; ++trial) {
    const NetGridShape s = random_shape();
    const GridRect r = random_region(s.g1, s.g2);
    double max_cell = 0.0, sum_cells = 0.0;
    for (int y = r.ylo; y <= r.yhi; ++y) {
      for (int x = r.xlo; x <= r.xhi; ++x) {
        const double p = prob_.cell_probability(s, x, y);
        max_cell = std::max(max_cell, p);
        sum_cells += p;
      }
    }
    const double region = prob_.region_probability_exact(s, r);
    EXPECT_GE(region + 1e-10, max_cell);
    EXPECT_LE(region, sum_cells + 1e-10);
  }
}

TEST_F(ProbProperties, RegionProbabilityStaysInUnitInterval) {
  // P is a probability: [0,1] for every shape/region draw, including the
  // degenerate single-row/column shapes where every path is forced.
  for (int trial = 0; trial < 400; ++trial) {
    // 1-in-5 draws force a degenerate shape (g1 == 1 or g2 == 1).
    NetGridShape s = random_shape();
    if (trial % 5 == 0) {
      (rng_.chance(0.5) ? s.g1 : s.g2) = 1;
    }
    const GridRect r = random_region(s.g1, s.g2);
    const double p = prob_.region_probability_exact(s, r);
    EXPECT_GE(p, 0.0) << "g=(" << s.g1 << ',' << s.g2 << ") region " << r;
    EXPECT_LE(p, 1.0) << "g=(" << s.g1 << ',' << s.g2 << ") region " << r;
    // Cell probabilities obey the same bounds (sampled corner).
    const double pc = prob_.cell_probability(s, r.xlo, r.ylo);
    EXPECT_GE(pc, 0.0);
    EXPECT_LE(pc, 1.0);
    // A degenerate shape has exactly one path: every cell on it is
    // crossed with certainty.
    if (s.degenerate()) {
      EXPECT_NEAR(p, 1.0, 1e-12);
    }
  }
}

TEST_F(ProbProperties, TransposeSymmetry) {
  // Swapping the x and y axes is a bijection on monotone lattice paths
  // (for both net types), so P over (g1,g2) at region r equals P over
  // (g2,g1) at the transposed region.
  for (int trial = 0; trial < 300; ++trial) {
    const NetGridShape s = random_shape();
    const GridRect r = random_region(s.g1, s.g2);
    const NetGridShape t{s.g2, s.g1, s.type2};
    const GridRect transposed{r.ylo, r.xlo, r.yhi, r.xhi};
    EXPECT_NEAR(prob_.region_probability_exact(s, r),
                prob_.region_probability_exact(t, transposed), 1e-10)
        << "g=(" << s.g1 << ',' << s.g2 << ") t2=" << s.type2 << " region "
        << r;
  }
}

TEST_F(ProbProperties, MonotoneOverRandomNestedRegions) {
  // Containment monotonicity for ARBITRARY nesting (the RegionGrowth test
  // above only grows by one ring): inner ⊆ outer implies P(inner) <=
  // P(outer), because every path crossing the inner region crosses the
  // outer one.
  for (int trial = 0; trial < 300; ++trial) {
    const NetGridShape s = random_shape();
    const GridRect outer = random_region(s.g1, s.g2);
    const int xlo = rng_.uniform_int(outer.xlo, outer.xhi);
    const int xhi = rng_.uniform_int(xlo, outer.xhi);
    const int ylo = rng_.uniform_int(outer.ylo, outer.yhi);
    const int yhi = rng_.uniform_int(ylo, outer.yhi);
    const GridRect inner{xlo, ylo, xhi, yhi};
    EXPECT_LE(prob_.region_probability_exact(s, inner),
              prob_.region_probability_exact(s, outer) + 1e-12)
        << "g=(" << s.g1 << ',' << s.g2 << ") inner " << inner << " outer "
        << outer;
  }
}

TEST_F(ProbProperties, OracleAgreesEverywhereRandomized) {
  for (int trial = 0; trial < 150; ++trial) {
    const NetGridShape s = random_shape();
    const GridRect r = random_region(s.g1, s.g2);
    EXPECT_NEAR(prob_.region_probability_exact(s, r),
                prob_.region_probability_oracle(s, r), 1e-10)
        << "g=(" << s.g1 << ',' << s.g2 << ") t2=" << s.type2 << " region "
        << r;
  }
}

TEST_F(ProbProperties, ApproxPolicyBoundedErrorRandomized) {
  // The Theorem 1 policy inherits the paper's Figure 8(d) weakness: terms
  // adjacent to a pin are underestimated, and on LARGE regions hugging the
  // pin-side boundary the underestimate accumulates. So: tight bound for
  // regions clear of the pin-adjacent frame, loose bound globally. (The
  // default kBandedExact strategy is exact everywhere; kTheorem1 is the
  // paper-fidelity mode.)
  ProbKernel kernel(prob_);
  for (int trial = 0; trial < 300; ++trial) {
    const NetGridShape s{rng_.uniform_int(12, 40), rng_.uniform_int(12, 40),
                         rng_.chance(0.5)};
    const GridRect r = random_region(s.g1, s.g2);
    const double expected = prob_.region_covers_pin(s, r)
                                ? 1.0
                                : prob_.region_probability_exact(s, r);
    double got = 0.0;
    kernel.region_probability_batch(s, std::span<const GridRect>(&r, 1),
                                    std::span<double>(&got, 1));
    const bool near_pin_frame =
        r.xlo <= 1 || r.ylo <= 1 || r.xhi >= s.g1 - 2 || r.yhi >= s.g2 - 2;
    EXPECT_NEAR(got, expected, near_pin_frame ? 0.20 : 0.06)
        << "g=(" << s.g1 << ',' << s.g2 << ") region " << r
        << " near_pin_frame=" << near_pin_frame;
  }
}

TEST_F(ProbProperties, BatchMatchesPerPairCallsBitwise) {
  // Batching (and scratch reuse across calls) must never change a bit:
  // one call over many regions equals one batch-of-one call per region.
  ProbKernel kernel(prob_);
  ProbKernel per_pair(prob_);
  for (int trial = 0; trial < 120; ++trial) {
    const NetGridShape s = random_shape();
    std::vector<GridRect> regions;
    for (int i = 0; i < 17; ++i) regions.push_back(random_region(s.g1, s.g2));
    // Raw out-of-range rects must clamp exactly like in-range ones.
    regions.push_back(GridRect{-3, -2, s.g1 + 4, 2});
    regions.push_back(GridRect{s.g1 - 2, -5, s.g1 + 6, s.g2 + 9});
    std::vector<double> out(regions.size(), -1.0);
    kernel.region_probability_batch(s, regions, out);
    for (std::size_t i = 0; i < regions.size(); ++i) {
      double one = -1.0;
      per_pair.region_probability_batch(
          s, std::span<const GridRect>(&regions[i], 1),
          std::span<double>(&one, 1));
      EXPECT_EQ(out[i], one)
          << "g=(" << s.g1 << ',' << s.g2 << ") t2=" << s.type2 << " region "
          << regions[i];
    }
    std::vector<double> exact_out(regions.size(), -1.0);
    kernel.region_probability_exact_batch(s, regions, exact_out);
    for (std::size_t i = 0; i < regions.size(); ++i) {
      const double expected = prob_.region_covers_pin(s, regions[i])
                                  ? 1.0
                                  : prob_.region_probability_exact(s, regions[i]);
      EXPECT_EQ(exact_out[i], expected) << "region " << regions[i];
    }
  }
}

TEST_F(ProbProperties, BatchedKernelMatchesScalarReferenceWithinUlps) {
  // The batched path replaces only the pdf evaluation (custom exp) and
  // the Simpson summation order; validity predicates are the same IEEE
  // expressions as the libm reference, so which regions drop to exact
  // Formula 3 is identical — asserted by the exact-equality branch
  // holding across the fallback boundary (a disagreement would show up as
  // an approximation-sized jump). Default thresholds, both net types.
  ProbKernel kernel(prob_);
  for (int trial = 0; trial < 200; ++trial) {
    const NetGridShape s{rng_.uniform_int(12, 40), rng_.uniform_int(12, 40),
                         rng_.chance(0.5)};
    std::vector<GridRect> regions;
    for (int i = 0; i < 16; ++i) regions.push_back(random_region(s.g1, s.g2));
    expect_batch_matches_reference(kernel, s, regions);
  }
}

TEST_F(ProbProperties, PaperInvalidCellsFallBackToExactInTheBatch) {
  // Section 4.5: the four pin-adjacent cells are the only invalid
  // samples of the reference probes (approx_test pins the list). With the
  // size-based fallbacks off, every region whose Simpson samples touch
  // them must come back from the batch as exact Formula 3, bit for bit;
  // every other one as Theorem 1.
  const int g1 = 9, g2 = 7;
  // Every single cell and every 2x2 block of the range, both net types.
  ProbKernel kernel(prob_, theorem1_everywhere());
  int fallbacks = 0;
  for (const bool type2 : {false, true}) {
    const NetGridShape s{g1, g2, type2};
    std::vector<GridRect> regions;
    for (int y = 0; y < g2; ++y) {
      for (int x = 0; x < g1; ++x) {
        regions.push_back(GridRect{x, y, x, y});
        regions.push_back(GridRect{x, y, x + 1, y + 1});
      }
    }
    fallbacks += expect_batch_matches_reference(kernel, s, regions);
  }
  EXPECT_GT(fallbacks, 0);  // the fallback branch really ran
}

TEST_F(ProbProperties, TheoremOneFallbacksAgreeWithScalarNullopt) {
  // Random regions on small-to-medium ranges with the size-based
  // fallbacks off: wherever the reference theorem1() returns nullopt the
  // batch must return exact Formula 3 bit for bit, elsewhere it must track
  // the reference to 1e-12.
  ProbKernel kernel(prob_, theorem1_everywhere());
  int fallbacks = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const NetGridShape s{rng_.uniform_int(5, 30), rng_.uniform_int(5, 30),
                         rng_.chance(0.5)};
    std::vector<GridRect> regions;
    for (int i = 0; i < 8; ++i) regions.push_back(random_region(s.g1, s.g2));
    fallbacks += expect_batch_matches_reference(kernel, s, regions);
  }
  EXPECT_GT(fallbacks, 0);
}

TEST_F(ProbProperties, BatchedSimdEvaluateBitIdenticalAcrossThreadCounts) {
  // End-to-end determinism pin for the batched path: the kTheorem1
  // strategy on the batched kernel must produce bit-identical flow grids at
  // every thread count (same contract as determinism_test, which covers
  // the default strategies).
  Rng rng(77);
  std::vector<TwoPinNet> nets;
  for (int i = 0; i < 150; ++i) {
    const Point a{static_cast<double>(rng.uniform_int(0, 900)),
                  static_cast<double>(rng.uniform_int(0, 700))};
    const Point b{static_cast<double>(rng.uniform_int(0, 900)),
                  static_cast<double>(rng.uniform_int(0, 700))};
    nets.push_back(TwoPinNet{a, b, i});
  }
  const Rect chip{0.0, 0.0, 930.0, 730.0};
  IrregularGridParams params;
  params.strategy = IrEvalStrategy::kTheorem1;
  const IrregularGridModel model(params);

  ThreadPool::set_global_threads(1);
  const IrregularCongestionMap reference = model.evaluate(nets, chip);
  ASSERT_GT(reference.cell_count(), 0);

  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool::set_global_threads(threads);
    const IrregularCongestionMap map = model.evaluate(nets, chip);
    ASSERT_EQ(map.nx(), reference.nx());
    ASSERT_EQ(map.ny(), reference.ny());
    for (int iy = 0; iy < map.ny(); ++iy) {
      for (int ix = 0; ix < map.nx(); ++ix) {
        EXPECT_EQ(map.flow(ix, iy), reference.flow(ix, iy))
            << "threads=" << threads << " cell=(" << ix << ',' << iy << ')';
      }
    }
    EXPECT_EQ(map.top_fraction_cost(0.10), reference.top_fraction_cost(0.10));
  }
  ThreadPool::set_global_threads(1);
}

TEST_F(ProbProperties, DiagonalSumsStayOneUnderMirror) {
  // Conservation must survive the type II mirror for every shape drawn.
  for (int trial = 0; trial < 60; ++trial) {
    const NetGridShape s = random_shape();
    for (int d = 0; d <= s.g1 + s.g2 - 2; d += 3) {
      double sum = 0.0;
      for (int x = 0; x < s.g1; ++x) {
        const int y = s.type2 ? (s.g2 - 1) - (d - x) : d - x;
        if (y >= 0 && y < s.g2) sum += prob_.cell_probability(s, x, y);
      }
      EXPECT_NEAR(sum, 1.0, 1e-9);
    }
  }
}

}  // namespace
}  // namespace ficon
