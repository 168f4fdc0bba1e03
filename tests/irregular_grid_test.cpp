// Irregular-Grid congestion model: end-to-end evaluation semantics.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>

#include <gtest/gtest.h>

#include "circuit/mcnc.hpp"
#include "congestion/banded.hpp"
#include "congestion/fixed_grid.hpp"
#include "congestion/irregular_grid.hpp"
#include "congestion/prob_kernel.hpp"
#include "floorplan/slicing.hpp"
#include "route/two_pin.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ficon {
namespace {

const Rect kChip{0, 0, 1000, 1000};

IrregularGridParams fine_params() {
  IrregularGridParams p;
  p.grid_w = 10;
  p.grid_h = 10;
  return p;
}

// One step of the exit-term recurrence in the banded scorer's (q, v, p, u)
// terms: both products of integers are exact, so the one division gives
// the correctly rounded ratio.
double step_factor(int q, int v, int p, int u) {
  return (static_cast<double>(q + p) * u) /
         (static_cast<double>(p) * (u + v));
}

// The banded net fill with every band walked on its own by scalar loops:
// the reference the four-lane walker must reproduce bit for bit.
std::vector<double> scalar_banded_reference(LogFactorialTable& table,
                                            const NetGridShape& shape,
                                            const std::vector<int>& lx1_,
                                            const std::vector<int>& lx2_,
                                            const std::vector<int>& ly1_,
                                            const std::vector<int>& ly2_) {
  const auto index = [](int cx, int cy, int ncx) {
    return static_cast<std::size_t>(cy) * static_cast<std::size_t>(ncx) +
           static_cast<std::size_t>(cx);
  };
  const int g1 = shape.g1;
  const int g2 = shape.g2;
  const bool t2 = shape.type2;
  const int ncx = static_cast<int>(lx1_.size());
  const int ncy = static_cast<int>(ly1_.size());
  std::vector<double> probs_(
      static_cast<std::size_t>(ncx) * static_cast<std::size_t>(ncy), 0.0);
  std::vector<int> row_cy1_(static_cast<std::size_t>(ncy));
  std::vector<int> row_cy2_(static_cast<std::size_t>(ncy));
  for (int cy = 0; cy < ncy; ++cy) {
    const int ly1 = ly1_[static_cast<std::size_t>(cy)];
    const int ly2 = ly2_[static_cast<std::size_t>(cy)];
    row_cy1_[static_cast<std::size_t>(cy)] = t2 ? g2 - 1 - ly2 : ly1;
    row_cy2_[static_cast<std::size_t>(cy)] = t2 ? g2 - 1 - ly1 : ly2;
  }

  const double log_total = table.log_choose(g1 + g2 - 2, g2 - 1);

  // --- Top-exit pass: one prefix-sum row per covered IR row.
  std::vector<double> prefix_(static_cast<std::size_t>(g1));
  for (int cy = 0; cy < ncy; ++cy) {
    const int top = row_cy2_[static_cast<std::size_t>(cy)];
    if (top >= g2 - 1) continue;  // no cell above: no top exits
    double term = std::exp(
        table.log_choose(g1 - 1 + g2 - 2 - top, g2 - 2 - top) - log_total);
    double running = 0.0;
    for (int x = 0; x < g1; ++x) {
      running += term;
      prefix_[static_cast<std::size_t>(x)] = running;
      if (x < g1 - 1) {
        term *= step_factor(top, g2 - 2 - top, x + 1, g1 - 1 - x);
      }
    }
    for (int cx = 0; cx < ncx; ++cx) {
      const int lx1 = lx1_[static_cast<std::size_t>(cx)];
      const int lx2 = lx2_[static_cast<std::size_t>(cx)];
      const double sum = prefix_[static_cast<std::size_t>(lx2)] -
                         (lx1 > 0 ? prefix_[static_cast<std::size_t>(lx1 - 1)]
                                  : 0.0);
      probs_[index(cx, cy, ncx)] += sum;
    }
  }

  // --- Right-exit pass: one prefix-sum column per covered IR column.
  prefix_.resize(static_cast<std::size_t>(std::max(g1, g2)));
  for (int cx = 0; cx < ncx; ++cx) {
    const int right = lx2_[static_cast<std::size_t>(cx)];
    if (right >= g1 - 1) continue;  // no cell to the right
    double term = std::exp(
        table.log_choose(g1 - 2 - right + g2 - 1, g2 - 1) - log_total);
    double running = 0.0;
    for (int y = 0; y < g2; ++y) {
      running += term;
      prefix_[static_cast<std::size_t>(y)] = running;
      if (y < g2 - 1) {
        term *= step_factor(right, g1 - 2 - right, y + 1, g2 - 1 - y);
      }
    }
    for (int cy = 0; cy < ncy; ++cy) {
      const int cy1 = row_cy1_[static_cast<std::size_t>(cy)];
      const int cy2 = row_cy2_[static_cast<std::size_t>(cy)];
      const double sum = prefix_[static_cast<std::size_t>(cy2)] -
                         (cy1 > 0 ? prefix_[static_cast<std::size_t>(cy1 - 1)]
                                  : 0.0);
      probs_[index(cx, cy, ncx)] += sum;
    }
  }

  // --- Pin override (the caller clamps).
  for (int cy = 0; cy < ncy; ++cy) {
    const int cy1 = row_cy1_[static_cast<std::size_t>(cy)];
    const int cy2 = row_cy2_[static_cast<std::size_t>(cy)];
    for (int cx = 0; cx < ncx; ++cx) {
      const int lx1 = lx1_[static_cast<std::size_t>(cx)];
      const int lx2 = lx2_[static_cast<std::size_t>(cx)];
      double& p = probs_[index(cx, cy, ncx)];
      const bool covers_source = lx1 == 0 && cy1 == 0;
      const bool covers_sink = lx2 == g1 - 1 && cy2 == g2 - 1;
      if (covers_source || covers_sink) p = 1.0;
    }
  }
  return probs_;
}

/// The single-band scalar recurrence in walk_band_pair()'s (q, v) terms.
std::vector<double> scalar_band(int len, const ExitBand& band) {
  std::vector<double> prefix(static_cast<std::size_t>(len));
  double term = band.seed;
  double running = 0.0;
  for (int x = 0; x < len; ++x) {
    running += term;
    prefix[static_cast<std::size_t>(x)] = running;
    if (x < len - 1) term *= step_factor(band.q, band.v, x + 1, len - 1 - x);
  }
  return prefix;
}

/// `count` fine-lattice spans [lo, hi] over [0, g-1]. Partition mode cuts
/// the lattice into contiguous spans, each optionally grown one cell
/// down (IR-cell edges off the fine lattice share a boundary cell); the
/// other mode draws arbitrary spans, many of them ending on g-1, so whole
/// bands are skipped in the middle of a pass.
void random_spans(Rng& rng, int g, int count, bool partition,
                  std::vector<int>& lo, std::vector<int>& hi) {
  lo.assign(static_cast<std::size_t>(count), 0);
  hi.assign(static_cast<std::size_t>(count), 0);
  if (partition) {
    std::vector<int> cuts{0, g};
    while (static_cast<int>(cuts.size()) < count + 1) {
      const int c = rng.uniform_int(1, g - 1);
      if (std::find(cuts.begin(), cuts.end(), c) == cuts.end()) {
        cuts.push_back(c);
      }
    }
    std::sort(cuts.begin(), cuts.end());
    for (std::size_t i = 0; i < lo.size(); ++i) {
      lo[i] = cuts[i] > 0 && rng.chance(0.3) ? cuts[i] - 1 : cuts[i];
      hi[i] = cuts[i + 1] - 1;
    }
    return;
  }
  for (std::size_t i = 0; i < lo.size(); ++i) {
    const int a = rng.uniform_int(0, g - 1);
    const int b = rng.chance(0.4) ? g - 1 : rng.uniform_int(0, g - 1);
    lo[i] = std::min(a, b);
    hi[i] = std::max(a, b);
  }
}

TEST(IrregularGrid, SingleNetDecomposition) {
  // One net, one routing range: cut lines = range boundaries + chip
  // boundary -> 3x3 IR-cells, and only the central one (the range itself)
  // accumulates probability 1... no: the range spans exactly one IR-cell in
  // each direction between its own cut lines, crossed with probability 1?
  // The range covers several IR-cells only if other nets cut through it.
  // With a single net the range is exactly one IR-cell, covering both pins
  // -> probability 1.
  const IrregularGridModel model(fine_params());
  const std::vector<TwoPinNet> nets{{Point{300, 300}, Point{700, 600}, 0}};
  const IrregularCongestionMap map = model.evaluate(nets, kChip);
  EXPECT_EQ(map.nx(), 3);
  EXPECT_EQ(map.ny(), 3);
  EXPECT_NEAR(map.flow(1, 1), 1.0, 1e-12);  // the routing range
  EXPECT_EQ(map.flow(0, 0), 0.0);
  EXPECT_EQ(map.flow(2, 2), 0.0);
  EXPECT_NEAR(map.density(1, 1), 1.0 / (400.0 * 300.0), 1e-15);
}

TEST(IrregularGrid, TwoOverlappingNetsSubdivide) {
  // Two crossing routing ranges: each range is divided by the other's cut
  // lines; flows must stay within [0, 1] per net per cell and the overlap
  // cell must see contributions from both nets.
  const IrregularGridModel model(fine_params());
  const std::vector<TwoPinNet> nets{
      {Point{100, 400}, Point{900, 500}, 0},   // wide horizontal band
      {Point{450, 100}, Point{550, 900}, 1},   // tall vertical band
  };
  const IrregularCongestionMap map = model.evaluate(nets, kChip);
  // Cut lines: x = {0,100,450,550,900,1000}, y = {0,100,400,500,900,1000}.
  EXPECT_EQ(map.nx(), 5);
  EXPECT_EQ(map.ny(), 5);
  // The crossing cell [450..550] x [400..500] is covered by both nets:
  // band nets pass through their full cross-section with probability 1.
  EXPECT_NEAR(map.flow(2, 2), 2.0, 1e-9);
  // A cell on the horizontal band only.
  EXPECT_NEAR(map.flow(1, 2), 1.0, 1e-9);
  // A corner cell touched by neither.
  EXPECT_EQ(map.flow(0, 0), 0.0);
}

TEST(IrregularGrid, FlowBoundedByNetCount) {
  Rng rng(51);
  std::vector<TwoPinNet> nets;
  for (int i = 0; i < 40; ++i) {
    nets.push_back(TwoPinNet{Point{rng.uniform(0, 1000), rng.uniform(0, 1000)},
                             Point{rng.uniform(0, 1000), rng.uniform(0, 1000)},
                             i});
  }
  const IrregularGridModel model;
  const IrregularCongestionMap map = model.evaluate(nets, kChip);
  for (int iy = 0; iy < map.ny(); ++iy) {
    for (int ix = 0; ix < map.nx(); ++ix) {
      EXPECT_GE(map.flow(ix, iy), 0.0);
      EXPECT_LE(map.flow(ix, iy), static_cast<double>(nets.size()) + 1e-9);
    }
  }
}

TEST(IrregularGrid, ExactAndApproximateModesAgree) {
  Rng rng(52);
  std::vector<TwoPinNet> nets;
  for (int i = 0; i < 25; ++i) {
    nets.push_back(TwoPinNet{Point{rng.uniform(0, 1000), rng.uniform(0, 1000)},
                             Point{rng.uniform(0, 1000), rng.uniform(0, 1000)},
                             i});
  }
  IrregularGridParams approx_params = fine_params();
  approx_params.strategy = IrEvalStrategy::kTheorem1;
  IrregularGridParams exact_params = fine_params();
  exact_params.strategy = IrEvalStrategy::kExactPerRegion;
  const IrregularGridModel approx_model(approx_params);
  const IrregularGridModel exact_model(exact_params);
  const IrregularCongestionMap a = approx_model.evaluate(nets, kChip);
  const IrregularCongestionMap e = exact_model.evaluate(nets, kChip);
  ASSERT_EQ(a.nx(), e.nx());
  ASSERT_EQ(a.ny(), e.ny());
  for (int iy = 0; iy < a.ny(); ++iy) {
    for (int ix = 0; ix < a.nx(); ++ix) {
      // Pin-covering cells differ by design (1 vs the exact 1 — identical),
      // interior cells only by the Theorem 1 error.
      EXPECT_NEAR(a.flow(ix, iy), e.flow(ix, iy), 0.12)
          << "cell " << ix << ',' << iy;
    }
  }
  EXPECT_NEAR(a.top_fraction_cost(0.10), e.top_fraction_cost(0.10),
              0.10 * std::max(1e-9, e.top_fraction_cost(0.10)) + 1e-7);
}

TEST(IrregularGrid, BandedMatchesPerRegionExactly) {
  // The banded prefix-sum fast path must reproduce the per-region exact
  // evaluation to floating-point accuracy on every IR-cell, across random
  // workloads containing both net types and degenerate nets.
  Rng rng(56);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<TwoPinNet> nets;
    for (int i = 0; i < 30; ++i) {
      Point a{rng.uniform(0, 1000), rng.uniform(0, 1000)};
      Point b{rng.uniform(0, 1000), rng.uniform(0, 1000)};
      if (i % 7 == 0) b.x = a.x;  // sprinkle degenerate nets
      if (i % 11 == 0) b.y = a.y;
      nets.push_back(TwoPinNet{a, b, i});
    }
    IrregularGridParams banded_params = fine_params();
    banded_params.strategy = IrEvalStrategy::kBandedExact;
    IrregularGridParams exact_params = fine_params();
    exact_params.strategy = IrEvalStrategy::kExactPerRegion;
    const auto banded = IrregularGridModel(banded_params).evaluate(nets, kChip);
    const auto exact = IrregularGridModel(exact_params).evaluate(nets, kChip);
    ASSERT_EQ(banded.nx(), exact.nx());
    ASSERT_EQ(banded.ny(), exact.ny());
    for (int iy = 0; iy < banded.ny(); ++iy) {
      for (int ix = 0; ix < banded.nx(); ++ix) {
        ASSERT_NEAR(banded.flow(ix, iy), exact.flow(ix, iy), 1e-9)
            << "trial " << trial << " cell " << ix << ',' << iy;
      }
    }
  }
}

// Golden record of a seeded stream of MCNC candidates (30 um pitch, one
// random move apart): an FNV-1a hash over the bit pattern of every flow
// value, plus the last candidate's top-fraction cost.
struct StreamGolden {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  double cost = 0.0;
};

StreamGolden stream_golden(const char* circuit, IrEvalStrategy strategy,
                           const ApproxOptions& approx) {
  const Netlist netlist = make_mcnc(circuit);
  const SlicingPacker packer(netlist);
  IrregularGridParams params;  // 30 um
  params.strategy = strategy;
  params.approx = approx;
  const IrregularGridModel model(params);
  Rng rng(4949);
  PolishExpression expr =
      PolishExpression::initial(static_cast<int>(netlist.module_count()));
  for (int k = 0; k < 500; ++k) expr.random_move(rng);
  StreamGolden golden;
  const auto fold = [&golden](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      golden.hash ^= (word >> (8 * byte)) & 0xffu;
      golden.hash *= 0x100000001b3ull;
    }
  };
  for (int candidate = 0; candidate < 50; ++candidate) {
    expr.random_move(rng);
    const SlicingResult packed = packer.pack(expr);
    const auto nets = decompose_to_two_pin(netlist, packed.placement);
    const IrregularCongestionMap map =
        model.evaluate(nets, packed.placement.chip);
    fold(static_cast<std::uint64_t>(map.nx()));
    fold(static_cast<std::uint64_t>(map.ny()));
    for (int iy = 0; iy < map.ny(); ++iy) {
      for (int ix = 0; ix < map.nx(); ++ix) {
        fold(std::bit_cast<std::uint64_t>(map.flow(ix, iy)));
      }
    }
    golden.cost = map.top_fraction_cost(params.top_fraction);
    fold(std::bit_cast<std::uint64_t>(golden.cost));
  }
  return golden;
}

TEST(IrregularGrid, BandedAmi49StreamIsBitIdenticalToGolden) {
  // Pins the default banded path bit for bit. Speed work on the banded
  // scorer must keep both values; an intended numerical change must
  // re-record them and say so. The values assume IEEE doubles without FMA
  // contraction (the default x86-64 build).
  ASSERT_EQ(IrregularGridParams{}.strategy, IrEvalStrategy::kBandedExact);
  const StreamGolden golden =
      stream_golden("ami49", IrEvalStrategy::kBandedExact, ApproxOptions{});
  EXPECT_EQ(golden.hash, 0x282e40c0ae3e0c97ull);
  EXPECT_EQ(golden.cost, 0x1.41cdcb8822509p-10);
}

TEST(IrregularGrid, PaperModeTheorem1Ami33StreamIsBitIdenticalToGolden) {
  // The same pin for the paper's Theorem 1 strategy with the narrowed
  // exact-fallback thresholds the paper-mode benches use, so Theorem 1
  // (not exact Formula 3) scores most regions, on the paper-mode
  // benchmark circuit. Guards the batched probability kernel against any
  // result drift.
  ApproxOptions approx;
  approx.narrow_range_threshold = 5;
  approx.small_region_threshold = 4;
  const StreamGolden golden =
      stream_golden("ami33", IrEvalStrategy::kTheorem1, approx);
  EXPECT_EQ(golden.hash, 0xe145df7c0f7b679aull);
  EXPECT_EQ(golden.cost, 0x1.b6ac98f63472cp-9);
}

TEST(BandedWalker, FourLanesMatchScalarRecurrenceBitForBit) {
  // Four bands per walk must give exactly the prefix sums of walking each
  // alone, including repeated bands (how a short last group is walked)
  // and bands whose ratios cross 1 mid-walk.
  Rng rng(58);
  const auto random_band = [&rng] {
    return ExitBand{rng.uniform(1e-300, 1.0), rng.uniform_int(0, 700),
                    rng.uniform_int(0, 700)};
  };
  for (const int len : {1, 2, 3, 150, 600}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::array<ExitBand, 4> bands;
      for (std::size_t k = 0; k < bands.size(); ++k) {
        bands[k] = k > 0 && trial % 5 == 0 ? bands[k - 1] : random_band();
      }
      std::vector<double> prefix(4 * (static_cast<std::size_t>(len) + 1));
      walk_band_quad(len, bands, prefix);
      for (std::size_t k = 0; k < bands.size(); ++k) {
        const std::vector<double> want = scalar_band(len, bands[k]);
        ASSERT_EQ(prefix[k], 0.0);
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(prefix[4 * (i + 1) + k]),
                    std::bit_cast<std::uint64_t>(want[i]))
              << "len " << len << " trial " << trial << " lane " << k
              << " step " << i;
        }
      }
    }
  }
}

// True iff `d` is the double nearest num/den (ties to even), decided in
// exact integer arithmetic. Requires d positive and normal.
bool is_correctly_rounded(double d, std::uint64_t num, std::uint64_t den) {
  using i128 = __int128;
  int e = 0;
  const double m = std::frexp(d, &e);  // d = m * 2^e, m in [0.5, 1)
  const auto mant = static_cast<std::int64_t>(std::ldexp(m, 53));
  // d = mant * 2^(e-53); scale by 2^(53-e) so the residual
  // r = (num/den - d) * den * 2^(53-e) is an integer and ulp(d) maps to 1.
  // num * 2^shift is within a factor 2 of mant * den < 2^107, so the
  // 128-bit products below cannot overflow.
  const int shift = 53 - e;
  EXPECT_TRUE(shift >= 0 && std::bit_width(num) + shift <= 126)
      << "factor " << d << " out of range";
  const i128 r = (static_cast<i128>(num) << shift) -
                 static_cast<i128>(mant) * static_cast<i128>(den);
  const i128 den128 = static_cast<i128>(den);
  if (r < 0 && mant == (std::int64_t{1} << 52)) {
    return -4 * r <= den128;  // spacing below a power of two is ulp/2
  }
  const i128 twice = r < 0 ? -2 * r : 2 * r;
  return twice < den128 || (twice == den128 && mant % 2 == 0);
}

TEST(BandedWalker, EachStepFactorIsTheCorrectlyRoundedRatio) {
  // The recurrence's products are exact below 2^26, so each factor has
  // one rounding: it is RN(((q+p)u) / (p(u+v))), the nearest double to
  // the exact ratio. Includes operands just under the 2^26 bound.
  Rng rng(61);
  const int top = kMaxBandedSide - 1;
  for (int trial = 0; trial < 20000; ++trial) {
    const int hi = trial % 4 == 0 ? top : trial % 4 == 1 ? 4096 : 700;
    const int q = rng.uniform_int(0, hi);
    const int v = rng.uniform_int(0, hi);
    const int p = rng.uniform_int(1, hi);
    const int u = rng.uniform_int(1, hi);
    const std::uint64_t num = static_cast<std::uint64_t>(q + p) *
                              static_cast<std::uint64_t>(u);
    const std::uint64_t den = static_cast<std::uint64_t>(p) *
                              static_cast<std::uint64_t>(u + v);
    const double f = step_factor(q, v, p, u);
    ASSERT_TRUE(is_correctly_rounded(f, num, den))
        << "q " << q << " v " << v << " p " << p << " u " << u;
  }
  // The checker itself: a neighbour of a correctly rounded factor fails.
  EXPECT_TRUE(is_correctly_rounded(1.0 / 3.0, 1, 3));
  EXPECT_FALSE(is_correctly_rounded(std::nextafter(1.0 / 3.0, 1.0), 1, 3));
  EXPECT_FALSE(is_correctly_rounded(std::nextafter(1.0 / 3.0, 0.0), 1, 3));
}

TEST(BandedWalker, MatchesExactPerRegionAcrossShapes) {
  // The banded fill, clamped as the model accumulates it, against exact
  // Formula 3 per region on type I and II lattices up to 300 x 300, with
  // 1 to 6 covered columns and rows, partitioned or arbitrary. The worst
  // cell is off by ~2.4e-12, the same before and after the one-division
  // recurrence: the prefix-sum differences dominate, not the factors.
  Rng rng(62);
  LogFactorialTable table;
  BandedNetScorer scorer;
  ProbKernel exact((PathProbability(table)));
  std::vector<int> lx1, lx2, ly1, ly2;
  std::vector<double> probs, want;
  std::vector<GridRect> regions;
  for (const int g1 : {2, 3, 17, 64, 150, 300}) {
    for (const int g2 : {2, 3, 17, 64, 150, 300}) {
      for (int variant = 0; variant < 4; ++variant) {
        const NetGridShape shape{g1, g2, variant % 2 == 1};
        const bool partition = variant < 2;
        const int ncx = std::min(g1, rng.uniform_int(1, 6));
        const int ncy = std::min(g2, rng.uniform_int(1, 6));
        random_spans(rng, g1, ncx, partition, lx1, lx2);
        random_spans(rng, g2, ncy, partition, ly1, ly2);
        scorer.fill(table, shape, lx1, lx2, ly1, ly2, probs);
        regions.clear();
        for (int cy = 0; cy < ncy; ++cy) {
          for (int cx = 0; cx < ncx; ++cx) {
            regions.push_back(GridRect{lx1[static_cast<std::size_t>(cx)],
                                       ly1[static_cast<std::size_t>(cy)],
                                       lx2[static_cast<std::size_t>(cx)],
                                       ly2[static_cast<std::size_t>(cy)]});
          }
        }
        want.assign(regions.size(), 0.0);
        exact.region_probability_exact_batch(shape, regions, want);
        ASSERT_EQ(probs.size(), want.size());
        for (std::size_t i = 0; i < probs.size(); ++i) {
          ASSERT_NEAR(std::clamp(probs[i], 0.0, 1.0), want[i], 1e-11)
              << "g " << g1 << 'x' << g2 << " variant " << variant
              << " cell " << i;
        }
      }
    }
  }
}

TEST(BandedWalker, NetMatrixMatchesScalarBandsBitForBit) {
  // The whole banded net fill against the one-band-at-a-time scalar
  // loops: g in {2, 3, 150, 600} per side, 1..6 covered rows/columns
  // (so 0, 1, 2, 3 and 5 bands walked per pass in partition mode), both
  // net types, and arbitrary spans that skip bands mid-pass.
  Rng rng(59);
  LogFactorialTable table;
  BandedNetScorer scorer;
  std::vector<int> lx1, lx2, ly1, ly2;
  std::vector<double> probs;
  int fills = 0;
  for (const int g1 : {2, 3, 150, 600}) {
    for (const int g2 : {2, 3, 150, 600}) {
      for (const int ncx : {1, 2, 3, 4, 6}) {
        for (const int ncy : {1, 2, 3, 4, 6}) {
          if (ncx > g1 || ncy > g2) continue;
          for (const bool type2 : {false, true}) {
            for (const bool partition : {true, false}) {
              const NetGridShape shape{g1, g2, type2};
              random_spans(rng, g1, ncx, partition, lx1, lx2);
              random_spans(rng, g2, ncy, partition, ly1, ly2);
              scorer.fill(table, shape, lx1, lx2, ly1, ly2, probs);
              const std::vector<double> want =
                  scalar_banded_reference(table, shape, lx1, lx2, ly1, ly2);
              ASSERT_EQ(probs.size(), want.size());
              for (std::size_t i = 0; i < probs.size(); ++i) {
                ASSERT_EQ(std::bit_cast<std::uint64_t>(probs[i]),
                          std::bit_cast<std::uint64_t>(want[i]))
                    << "g " << g1 << 'x' << g2 << " cells " << ncx << 'x'
                    << ncy << " type2 " << type2 << " partition "
                    << partition << " cell " << i;
              }
              ++fills;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(fills, 300);
}

TEST(IrregularGrid, DegenerateNetsHandled) {
  const IrregularGridModel model(fine_params());
  const std::vector<TwoPinNet> nets{
      {Point{500, 500}, Point{500, 500}, 0},  // point
      {Point{100, 200}, Point{900, 200}, 1},  // horizontal segment
      {Point{300, 100}, Point{300, 900}, 2},  // vertical segment
  };
  const IrregularCongestionMap map = model.evaluate(nets, kChip);
  double total = 0.0;
  for (int iy = 0; iy < map.ny(); ++iy) {
    for (int ix = 0; ix < map.nx(); ++ix) total += map.flow(ix, iy);
  }
  EXPECT_GT(total, 0.0);  // all three degenerate nets registered somewhere
}

TEST(IrregularGrid, DegenerateNetsSplitEvenlyAcrossAdjacentCells) {
  // Regression: a snapped routing range that collapses onto an interior cut
  // line used to charge its whole crossing probability to one arbitrary
  // side of the line. The documented rule is 0.5/0.5 across the two
  // touching cells per collapsed axis (1.0 to the single neighbor at a chip
  // boundary), with weights multiplying when both axes collapse.
  const IrregularGridModel model(fine_params());

  // Vertical net exactly on the interior cut line x=300:
  // xs = {0, 300, 1000}, ys = {0, 100, 900, 1000}.
  const std::vector<TwoPinNet> vertical{{Point{300, 100}, Point{300, 900}, 0}};
  const IrregularCongestionMap v = model.evaluate(vertical, kChip);
  ASSERT_EQ(v.nx(), 2);
  ASSERT_EQ(v.ny(), 3);
  EXPECT_DOUBLE_EQ(v.flow(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(v.flow(1, 1), 0.5);
  EXPECT_EQ(v.flow(0, 0), 0.0);
  EXPECT_EQ(v.flow(1, 2), 0.0);

  // The same net on the chip's left edge has only one neighboring column,
  // which takes the full unit: xs = {0, 1000}.
  const std::vector<TwoPinNet> edge{{Point{0, 100}, Point{0, 900}, 0}};
  const IrregularCongestionMap e = model.evaluate(edge, kChip);
  ASSERT_EQ(e.nx(), 1);
  EXPECT_DOUBLE_EQ(e.flow(0, 1), 1.0);

  // Crossing degenerate nets plus a point net at their crossing: the point
  // collapses on both axes and charges 0.25 to each corner cell, so each of
  // the four cells around (300, 500) accumulates 0.5 + 0.5 + 0.25.
  const std::vector<TwoPinNet> cross{
      {Point{300, 100}, Point{300, 900}, 0},  // vertical on x=300
      {Point{100, 500}, Point{900, 500}, 1},  // horizontal on y=500
      {Point{300, 500}, Point{300, 500}, 2},  // point on the crossing
  };
  const IrregularCongestionMap c = model.evaluate(cross, kChip);
  // xs = {0, 100, 300, 900, 1000}, ys = {0, 100, 500, 900, 1000}.
  ASSERT_EQ(c.nx(), 4);
  ASSERT_EQ(c.ny(), 4);
  for (const int ix : {1, 2}) {
    for (const int iy : {1, 2}) {
      EXPECT_DOUBLE_EQ(c.flow(ix, iy), 1.25) << "cell " << ix << ',' << iy;
    }
  }
}

TEST(IrregularGrid, ScoreMemoNeverChangesResults) {
  // The per-net memo (score_cache_capacity) must be invisible in the
  // output: hits return the exact matrix a miss would recompute. Compare
  // memo-on vs memo-off bitwise for every strategy, and re-evaluate with a
  // warm thread-local memo (second pass is nearly all hits).
  Rng rng(57);
  std::vector<TwoPinNet> nets;
  for (int i = 0; i < 50; ++i) {
    Point a{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    Point b{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    if (i % 9 == 0) b.x = a.x;  // include degenerate shapes
    nets.push_back(TwoPinNet{a, b, i});
  }
  // Duplicates guarantee intra-evaluation hits as well.
  for (int i = 0; i < 15; ++i) nets.push_back(nets[static_cast<std::size_t>(i)]);
  for (const IrEvalStrategy strategy :
       {IrEvalStrategy::kBandedExact, IrEvalStrategy::kExactPerRegion,
        IrEvalStrategy::kTheorem1}) {
    IrregularGridParams memoized = fine_params();
    memoized.strategy = strategy;
    IrregularGridParams plain = memoized;
    plain.score_cache_capacity = 0;
    const auto on = IrregularGridModel(memoized).evaluate(nets, kChip);
    const auto off = IrregularGridModel(plain).evaluate(nets, kChip);
    const auto warm = IrregularGridModel(memoized).evaluate(nets, kChip);
    ASSERT_EQ(on.nx(), off.nx());
    ASSERT_EQ(on.ny(), off.ny());
    for (int iy = 0; iy < on.ny(); ++iy) {
      for (int ix = 0; ix < on.nx(); ++ix) {
        ASSERT_EQ(on.flow(ix, iy), off.flow(ix, iy))
            << "strategy " << static_cast<int>(strategy) << " cell " << ix
            << ',' << iy;
        ASSERT_EQ(on.flow(ix, iy), warm.flow(ix, iy))
            << "warm memo diverged at cell " << ix << ',' << iy;
      }
    }
  }
}

TEST(IrregularGrid, CostWeightsDensityByArea) {
  // Construct a map by hand: a tiny hot cell and a large cold cell. With
  // fraction 10% of a 1000x1000 chip (=100000 um^2), the hot cell (10000
  // um^2) is fully taken and the remainder comes from the next densest.
  IrregularCongestionMap map(CutLines({0, 100, 1000}, {0, 100, 1000}));
  map.add_flow(0, 0, 5.0);    // 100x100 cell, density 5e-4
  map.add_flow(1, 1, 10.0);   // 900x900 cell, density ~1.23e-5
  const double cost = map.top_fraction_cost(0.10);
  const double hot_density = 5.0 / (100.0 * 100.0);
  const double cold_density = 10.0 / (900.0 * 900.0);
  const double budget = 0.10 * 1000 * 1000;
  const double expected =
      (hot_density * 10000.0 + cold_density * (budget - 10000.0)) / budget;
  EXPECT_NEAR(cost, expected, 1e-15);
}

TEST(IrregularGrid, CostMonotonicInExtraNets) {
  Rng rng(53);
  std::vector<TwoPinNet> nets;
  for (int i = 0; i < 20; ++i) {
    nets.push_back(TwoPinNet{Point{rng.uniform(400, 600), rng.uniform(400, 600)},
                             Point{rng.uniform(400, 600), rng.uniform(400, 600)},
                             i});
  }
  const IrregularGridModel model;
  const double base = model.cost(nets, kChip);
  // Duplicate the hottest region's nets: cost must not decrease.
  std::vector<TwoPinNet> more = nets;
  more.insert(more.end(), nets.begin(), nets.end());
  EXPECT_GE(model.cost(more, kChip) + 1e-12, base);
}

TEST(IrregularGrid, TracksJudgingModelAcrossPlacements) {
  // The headline claim of Experiment 2: the IR-grid estimate moves with the
  // fine fixed-grid judging estimate. Compare rankings over random
  // placements of ami33.
  const Netlist netlist = make_mcnc("ami33");
  const SlicingPacker packer(netlist);
  Rng rng(54);
  PolishExpression expr =
      PolishExpression::initial(static_cast<int>(netlist.module_count()));
  IrregularGridParams params;
  params.grid_w = 30;
  params.grid_h = 30;
  const IrregularGridModel ir(params);
  const FixedGridModel judge = make_judging_model(10.0);
  std::vector<double> ir_costs, judge_costs;
  for (int i = 0; i < 12; ++i) {
    for (int k = 0; k < 30; ++k) expr.random_move(rng);
    const SlicingResult packed = packer.pack(expr);
    const auto nets = decompose_to_two_pin(netlist, packed.placement);
    ir_costs.push_back(ir.cost(nets, packed.placement.chip));
    judge_costs.push_back(judge.cost(nets, packed.placement.chip));
  }
  EXPECT_GT(pearson(ir_costs, judge_costs), 0.4);
}

TEST(IrregularGrid, CsvOutput) {
  const IrregularGridModel model(fine_params());
  const std::vector<TwoPinNet> nets{{Point{300, 300}, Point{700, 600}, 0}};
  const IrregularCongestionMap map = model.evaluate(nets, kChip);
  std::ostringstream csv;
  map.write_csv(csv);
  const std::string text = csv.str();
  EXPECT_NE(text.find("xlo,ylo,xhi,yhi,flow,density"), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1 + map.cell_count());
}

TEST(IrregularGrid, MergeFactorReducesCellCount) {
  Rng rng(55);
  std::vector<TwoPinNet> nets;
  for (int i = 0; i < 30; ++i) {
    nets.push_back(TwoPinNet{Point{rng.uniform(0, 1000), rng.uniform(0, 1000)},
                             Point{rng.uniform(0, 1000), rng.uniform(0, 1000)},
                             i});
  }
  IrregularGridParams loose = fine_params();
  loose.merge_factor = 8.0;
  IrregularGridParams tight = fine_params();
  tight.merge_factor = 0.5;
  const auto coarse = IrregularGridModel(loose).evaluate(nets, kChip);
  const auto fine = IrregularGridModel(tight).evaluate(nets, kChip);
  EXPECT_LT(coarse.cell_count(), fine.cell_count());
}

TEST(IrregularGrid, RejectsBadParams) {
  IrregularGridParams p;
  p.grid_w = 0;
  EXPECT_THROW(IrregularGridModel{p}, std::invalid_argument);
  IrregularGridParams q;
  q.merge_factor = -1;
  EXPECT_THROW(IrregularGridModel{q}, std::invalid_argument);
}

}  // namespace
}  // namespace ficon
