// Banded exact scoring of one net (IrEvalStrategy::kBandedExact).
//
// Works in the canonical type I frame (source cell (0,0), sink
// (g1-1,g2-1); type II nets are y-mirrored). Formula 3 for an IR-cell is
//   P = sum_x in [lx1..lx2] T(x, Y)  +  sum_y in [cy1..cy2] R(X, y)
// with T/R the normalized top/right exit terms, Y the cell's top fine row
// and X its right fine column. Rather than evaluating each cell's sums
// independently, build per-band prefix sums of T (one band of length g1
// per covered IR row) and of R (one band of length g2 per covered IR
// column), advancing the terms with exact multiplicative recurrences:
//   T(x+1,Y)/T(x,Y) = (x+1+Y)/(x+1) * (g1-1-x)/((g1-1-x)+(g2-2-Y))
//   R(X,y+1)/R(X,y) = (X+1+y)/(y+1) * (g2-1-y)/((g1-2-X)+(g2-1-y))
// Both are one recurrence: with p = steps taken, u = len - p and the
// band's constants q (Y or X) and v (g2-2-Y or g1-2-X),
//   term *= ((q+p)*u) / (p*(u+v)),
// so the only transcendental call is one exp() per band (the seed). The
// four operands are integers below 2^26 (fill() requires g1, g2 < 2^26),
// so both products are exact in double and each factor is the correctly
// rounded ratio RN(((q+p)u) / (p(u+v))): one rounding, at most 0.5 ulp,
// per step. Cells covering a pin are exactly 1 (every route passes a pin
// cell), which doubles as the paper's step 3.1.
//
// Cost per net: O(R + ncy·g1 + ncx·g2) for R covered IR-cells; the band
// walks dominate (each step is one IEEE division and two multiplies per
// band). The bands of one pass are independent and equally long, so
// walk_band_quad() advances four of them at once in two 2-lane vectors
// (with one division per step the walk is no longer bound by division
// throughput, and four lanes measured faster than two). Each lane
// performs exactly the scalar operations in the scalar order — lane-wise
// divisions, no reciprocals — so every prefix sum is bit-identical to
// walking the band alone.
#pragma once

#include <span>
#include <vector>

#include "congestion/path_prob.hpp"
#include "numeric/factorial.hpp"

namespace ficon {

/// Lattice sides at or above this bound would make the recurrence's
/// integer products inexact in double.
inline constexpr int kMaxBandedSide = 1 << 26;

/// One exit-term band of the recurrence above.
struct ExitBand {
  double seed;  ///< the band's first term
  int q;        ///< fixed coordinate: top row Y or right column X
  int v;        ///< complementary extent: g2-2-Y or g1-2-X
};

/// Prefix sums of four bands, all of length `len` >= 1, walked together
/// in two 2-lane vectors (lanes 0-1 and 2-3). `prefix` holds len+1 rows
/// of four interleaved lanes: prefix[4*i + k] is the sum of band k's
/// first i terms, so row 0 is zero and band k's terms lo..hi sum to
/// prefix[4*(hi+1) + k] - prefix[4*lo + k]. Repeat a band to walk fewer.
/// Requires len, q and v below kMaxBandedSide.
void walk_band_quad(int len, std::span<const ExitBand, 4> bands,
                    std::span<double> prefix);

/// Banded exact crossing probabilities for all covered IR-cells of one
/// non-degenerate net. Owns its scratch buffers; one instance per
/// thread, never shared between threads.
class BandedNetScorer {
 public:
  /// @param shape  the net's fine lattice; requires 2 <= g1, g2 <
  ///               kMaxBandedSide.
  /// @param lx1,lx2  unmirrored local fine spans of the covered columns.
  /// @param ly1,ly2  unmirrored local fine spans of the covered rows.
  /// @param probs  out: ncx x ncy row-major (cy-major) matrix with the pin
  ///               override applied. Not clamped: rounding can leave a
  ///               cell a few ulp outside [0, 1], and the caller clamps
  ///               while accumulating.
  void fill(LogFactorialTable& table, const NetGridShape& shape,
            std::span<const int> lx1, std::span<const int> lx2,
            std::span<const int> ly1, std::span<const int> ly2,
            std::vector<double>& probs);

 private:
  /// Walks bands_ (all of length `len`) four at a time into prefix_ and
  /// hands each group's IR rows/columns (1 to 4, from band_cell_) to
  /// `add`, which reads lane k of prefix_ for the k-th of them.
  template <typename Add>
  void walk_bands(int len, Add&& add);

  std::vector<int> row_cy1_, row_cy2_;
  std::vector<ExitBand> bands_;
  std::vector<int> band_cell_;
  std::vector<double> prefix_;
};

}  // namespace ficon
