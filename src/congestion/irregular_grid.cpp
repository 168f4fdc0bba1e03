#include "congestion/irregular_grid.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <ostream>

#include "congestion/banded.hpp"
#include "congestion/prob_kernel.hpp"
#include "congestion/score_cache.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace ficon {

namespace {

/// Map an IR-cell's um extent onto the net's local fine-lattice cell span.
/// `origin` is the snapped range start, `pitch` the fine pitch, `g` the
/// lattice size along this axis.
int local_lo(double lo, double origin, double pitch, int g) {
  const double raw = (lo - origin) / pitch;
  return std::clamp(static_cast<int>(std::floor(raw + 1e-9)), 0, g - 1);
}

int local_hi(double hi, double origin, double pitch, int g) {
  const double raw = (hi - origin) / pitch;
  return std::clamp(static_cast<int>(std::ceil(raw - 1e-9)) - 1, 0, g - 1);
}

// Two doubles in one 16-byte vector, as in congestion/banded.cpp.
using vd2 = double __attribute__((vector_size(16)));

/// A partial flow grid: one block's accumulation target. Same row-major
/// layout as IrregularCongestionMap::flow(); partials from all blocks are
/// reduced in block order at the end of evaluate().
struct FlowGrid {
  std::vector<double>* flow;
  int nx;
  int ny;

  void add(int ix, int iy, double p) const {
    FICON_REQUIRE(ix >= 0 && ix < nx && iy >= 0 && iy < ny,
                  "IR-cell index out of range");
    (*flow)[static_cast<std::size_t>(iy) * static_cast<std::size_t>(nx) +
            static_cast<std::size_t>(ix)] += p;
  }

  /// row[i] += clamp(probs[i], 0, 1) along IR row iy from column ix: two
  /// cells per vector step, each rounded as the scalar `+=` rounds it.
  /// Unchecked; the caller checks the net's whole window once.
  void add_clamped_row(int ix, int iy, std::span<const double> probs) const {
    double* row = flow->data() +
                  static_cast<std::size_t>(iy) * static_cast<std::size_t>(nx) +
                  static_cast<std::size_t>(ix);
    const std::size_t n = probs.size();
    const vd2 zero{0.0, 0.0};
    const vd2 one{1.0, 1.0};
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      vd2 p;
      vd2 acc;
      std::memcpy(&p, probs.data() + i, sizeof p);
      std::memcpy(&acc, row + i, sizeof acc);
      // std::clamp's selects, lane-wise (a NaN passes through as there).
      p = p < zero ? zero : p;
      p = one < p ? one : p;
      acc += p;
      std::memcpy(row + i, &acc, sizeof acc);
    }
    for (; i < n; ++i) row[i] += std::clamp(probs[i], 0.0, 1.0);
  }
};

/// One net's placement on the Irregular-Grid: covered IR-cell index window
/// plus the local fine lattice.
struct NetOnGrid {
  int ix1, ix2, iy1, iy2;  ///< covering cut-line indices (cells ix1..ix2-1)
  double sx1, sy1;         ///< snapped range origin (um)
  NetGridShape shape;

  int ncx() const { return ix2 - ix1; }  ///< covered IR columns
  int ncy() const { return iy2 - iy1; }  ///< covered IR rows
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Fingerprint of every option that influences a memoized probability
/// matrix. The ScoreMemo clears itself when this changes, so cached values
/// can never leak across strategies or Theorem-1 knob settings.
std::uint64_t scoring_fingerprint(const IrregularGridParams& p) {
  std::uint64_t h = 0;
  h = mix(h, static_cast<std::uint64_t>(p.strategy));
  h = mix(h, std::bit_cast<std::uint64_t>(p.grid_w));
  h = mix(h, std::bit_cast<std::uint64_t>(p.grid_h));
  h = mix(h, static_cast<std::uint64_t>(p.approx.continuity_correction));
  h = mix(h, static_cast<std::uint64_t>(p.approx.simpson_panels));
  h = mix(h, static_cast<std::uint64_t>(p.approx.small_range_threshold));
  h = mix(h, static_cast<std::uint64_t>(p.approx.small_region_threshold));
  h = mix(h, static_cast<std::uint64_t>(p.approx.narrow_range_threshold));
  return h;
}

/// Per-thread net scorer (algorithm steps 3.1-3.3).
///
/// For every net it derives the covered IR-cell window and each covered
/// column/row's local fine-lattice span, then computes the net's ncx x ncy
/// crossing-probability matrix and accumulates it into the block's partial
/// flow grid. Under kBandedExact the matrix comes from BandedNetScorer
/// (congestion/banded.hpp). Under the region strategies it is a pure
/// function of the signature (g1, g2, type2, ncx, ncy, spans), so it is
/// memoized in a thread_local ScoreMemo: during annealing, nets whose
/// modules did not move re-present identical signatures and skip straight
/// to accumulation. Hit and miss produce bit-identical matrices, so
/// memoization cannot perturb results.
class NetScorer {
 public:
  explicit NetScorer(LogFactorialTable& table)
      : table_(&table), kernel_(PathProbability(table)) {}

  /// Points the scorer at one evaluate() call's parameters and memo.
  void bind(const IrregularGridParams& params, ScoreMemo& memo) {
    params_ = &params;
    memo_ = &memo;
    kernel_.set_options(params.approx);
  }

  void score(const TwoPinNet& net, const CutLines& cl, const Rect& chip,
             const FlowGrid& out) {
    obs::count(obs::Counter::kIrNetsScored);
    const Rect range = net.routing_range().intersection(chip);
    if (!range.valid()) return;  // net fully outside the chip window

    // Snap the routing range to the merged cut lines (step 2's "modify the
    // corresponding routing ranges").
    NetOnGrid on_grid;
    on_grid.ix1 = cl.nearest_x(range.xlo);
    on_grid.ix2 = cl.nearest_x(range.xhi);
    on_grid.iy1 = cl.nearest_y(range.ylo);
    on_grid.iy2 = cl.nearest_y(range.yhi);
    on_grid.sx1 = cl.xs()[static_cast<std::size_t>(on_grid.ix1)];
    on_grid.sy1 = cl.ys()[static_cast<std::size_t>(on_grid.iy1)];
    const double sx2 = cl.xs()[static_cast<std::size_t>(on_grid.ix2)];
    const double sy2 = cl.ys()[static_cast<std::size_t>(on_grid.iy2)];

    // Degenerate (line/point) snapped ranges: the single route runs exactly
    // ON a cut line, i.e. on the shared boundary of the two adjacent IR-cell
    // columns (rows). Charging only one side would systematically bias
    // congestion toward that side, so split the unit crossing probability
    // 0.5/0.5 across the two touching cells per collapsed axis — or give
    // the single neighbor weight 1.0 when the line is a chip boundary.
    // Weights multiply when both axes collapse (a point net on a cut-line
    // crossing charges its four corner cells 0.25 each).
    if (on_grid.ix1 == on_grid.ix2 || on_grid.iy1 == on_grid.iy2) {
      obs::count(obs::Counter::kIrNetsDegenerate);
      int cx_lo, cx_hi;
      double wx = 1.0;
      if (on_grid.ix1 == on_grid.ix2) {
        const bool left = on_grid.ix1 > 0;
        const bool right = on_grid.ix1 < cl.nx();
        cx_lo = left ? on_grid.ix1 - 1 : on_grid.ix1;
        cx_hi = right ? on_grid.ix1 : on_grid.ix1 - 1;
        if (left && right) wx = 0.5;
      } else {
        cx_lo = on_grid.ix1;
        cx_hi = on_grid.ix2 - 1;
      }
      int cy_lo, cy_hi;
      double wy = 1.0;
      if (on_grid.iy1 == on_grid.iy2) {
        const bool below = on_grid.iy1 > 0;
        const bool above = on_grid.iy1 < cl.ny();
        cy_lo = below ? on_grid.iy1 - 1 : on_grid.iy1;
        cy_hi = above ? on_grid.iy1 : on_grid.iy1 - 1;
        if (below && above) wy = 0.5;
      } else {
        cy_lo = on_grid.iy1;
        cy_hi = on_grid.iy2 - 1;
      }
      for (int iy = cy_lo; iy <= cy_hi; ++iy) {
        for (int ix = cx_lo; ix <= cx_hi; ++ix) {
          out.add(ix, iy, wx * wy);
        }
      }
      return;
    }

    // Fine lattice of the snapped routing range.
    on_grid.shape.g1 = std::max(
        1, static_cast<int>(
               std::ceil((sx2 - on_grid.sx1) / params_->grid_w - 1e-9)));
    on_grid.shape.g2 = std::max(
        1, static_cast<int>(
               std::ceil((sy2 - on_grid.sy1) / params_->grid_h - 1e-9)));
    // Type II iff the left pin is the upper pin (Figure 1).
    const Point& left = net.a.x <= net.b.x ? net.a : net.b;
    const Point& right = net.a.x <= net.b.x ? net.b : net.a;
    on_grid.shape.type2 = !on_grid.shape.degenerate() && left.y > right.y;

    // Unmirrored local fine spans of every covered IR column/row. They are
    // both the evaluation input and (with the shape) the memo signature.
    const int ncx = on_grid.ncx();
    const int ncy = on_grid.ncy();
    lx1_.resize(static_cast<std::size_t>(ncx));
    lx2_.resize(static_cast<std::size_t>(ncx));
    for (int cx = 0; cx < ncx; ++cx) {
      const Rect cell = cl.cell_rect(on_grid.ix1 + cx, on_grid.iy1);
      lx1_[static_cast<std::size_t>(cx)] =
          local_lo(cell.xlo, on_grid.sx1, params_->grid_w, on_grid.shape.g1);
      lx2_[static_cast<std::size_t>(cx)] =
          local_hi(cell.xhi, on_grid.sx1, params_->grid_w, on_grid.shape.g1);
    }
    ly1_.resize(static_cast<std::size_t>(ncy));
    ly2_.resize(static_cast<std::size_t>(ncy));
    for (int cy = 0; cy < ncy; ++cy) {
      const Rect cell = cl.cell_rect(on_grid.ix1, on_grid.iy1 + cy);
      ly1_[static_cast<std::size_t>(cy)] =
          local_lo(cell.ylo, on_grid.sy1, params_->grid_h, on_grid.shape.g2);
      ly2_[static_cast<std::size_t>(cy)] =
          local_hi(cell.yhi, on_grid.sy1, params_->grid_h, on_grid.shape.g2);
    }

    // Memoization split: under the region strategies a per-cell
    // evaluation costs microseconds, so the matrix memo pays for its
    // lookup. The banded path always recomputes and caches nothing: a
    // recompute costs microseconds too (~7 us per ami49 net at 30 um),
    // but memoizing its ~900-double matrices at the default 4096 entries
    // would cost ~28 MiB per thread. Degenerate shapes fall back to
    // fill_regions and stay memoized. Hits and misses are bit-identical,
    // so the split is invisible in results.
    const bool banded = params_->strategy == IrEvalStrategy::kBandedExact &&
                        !on_grid.shape.degenerate();
    const std::vector<double>* probs = nullptr;
    if (memo_->enabled() && !banded) {
      build_key(on_grid);
      probs = memo_->find(key_);
    }
    if (probs == nullptr) {
      if (banded) {
        banded_.fill(*table_, on_grid.shape, lx1_, lx2_, ly1_, ly2_,
                     probs_);
      } else {
        fill_regions(on_grid);
        if (memo_->enabled()) memo_->insert(key_, probs_);
      }
      probs = &probs_;
    }

    // Clamp-and-accumulate, one matrix row per IR row. The clamp only
    // moves banded cells (the region strategies return clamped values);
    // a traced run counts the moves in a loop of its own, so the
    // untraced loop stays branch-free.
    FICON_REQUIRE(on_grid.ix1 >= 0 && on_grid.ix2 <= out.nx &&
                      on_grid.iy1 >= 0 && on_grid.iy2 <= out.ny,
                  "IR-cell index out of range");
    const std::span<const double> matrix(*probs);
    if (obs::trace_enabled()) {
      const auto moved =
          std::count_if(matrix.begin(), matrix.end(),
                        [](double p) { return p < 0.0 || p > 1.0; });
      obs::count(obs::Counter::kIrProbsClamped, moved);
    }
    for (int cy = 0; cy < ncy; ++cy) {
      out.add_clamped_row(on_grid.ix1, on_grid.iy1 + cy,
                          matrix.subspan(index(0, cy, ncx),
                                         static_cast<std::size_t>(ncx)));
    }
  }

 private:
  static std::size_t index(int cx, int cy, int ncx) {
    return static_cast<std::size_t>(cy) * static_cast<std::size_t>(ncx) +
           static_cast<std::size_t>(cx);
  }

  void build_key(const NetOnGrid& net) {
    key_.clear();
    key_.reserve(5 + lx1_.size() + lx2_.size() + ly1_.size() + ly2_.size());
    key_.push_back(net.shape.g1);
    key_.push_back(net.shape.g2);
    key_.push_back(net.shape.type2 ? 1 : 0);
    key_.push_back(net.ncx());
    key_.push_back(net.ncy());
    key_.insert(key_.end(), lx1_.begin(), lx1_.end());
    key_.insert(key_.end(), lx2_.begin(), lx2_.end());
    key_.insert(key_.end(), ly1_.begin(), ly1_.end());
    key_.insert(key_.end(), ly2_.begin(), ly2_.end());
  }

  /// Per-region probabilities (kTheorem1 / kExactPerRegion, and the
  /// degenerate-shape fallback of kBandedExact): steps 3.1-3.3, one
  /// batched kernel call for the net's whole ncx x ncy region matrix.
  void fill_regions(const NetOnGrid& net) {
    const int ncx = net.ncx();
    const int ncy = net.ncy();
    // Regions computed (memo hits skip this function entirely; they show
    // up as score_memo hits instead). The banded strategy's degenerate
    // shapes land here too and count as exact regions.
    obs::count(params_->strategy == IrEvalStrategy::kTheorem1
                   ? obs::Counter::kIrRegionsTheorem1
                   : obs::Counter::kIrRegionsExact,
               static_cast<long long>(ncx) * ncy);
    const std::size_t n =
        static_cast<std::size_t>(ncx) * static_cast<std::size_t>(ncy);
    regions_.resize(n);
    probs_.assign(n, 0.0);
    for (int cy = 0; cy < ncy; ++cy) {
      for (int cx = 0; cx < ncx; ++cx) {
        regions_[index(cx, cy, ncx)] =
            GridRect{lx1_[static_cast<std::size_t>(cx)],
                     ly1_[static_cast<std::size_t>(cy)],
                     lx2_[static_cast<std::size_t>(cx)],
                     ly2_[static_cast<std::size_t>(cy)]};
      }
    }
    if (params_->strategy == IrEvalStrategy::kTheorem1) {
      kernel_.region_probability_batch(net.shape, regions_, probs_);
    } else {
      kernel_.region_probability_exact_batch(net.shape, regions_, probs_);
    }
  }

  LogFactorialTable* table_;
  const IrregularGridParams* params_ = nullptr;
  ScoreMemo* memo_ = nullptr;
  ProbKernel kernel_;
  BandedNetScorer banded_;
  // Scratch buffers reused across nets, blocks and evaluate() calls (one
  // scorer per thread, so these are never shared between threads).
  std::vector<GridRect> regions_;
  std::vector<double> probs_;
  std::vector<int> lx1_, lx2_, ly1_, ly2_;
  ScoreMemo::Key key_;
};

/// Per-thread log-factorial and scoring caches: amortized across calls
/// like single-threaded member caches would be, but race-free. Cache hits
/// return bit-identical values to misses, so per-thread cache duplication
/// affects only the hit rate, never the result. Function-scoped accessors
/// (rather than thread_locals named inside the worker lambda) keep the
/// lazy-init semantics while giving diagnostics access to the calling
/// thread's instances.
LogFactorialTable& scoring_table() {
  thread_local LogFactorialTable table;
  return table;
}

ScoreMemo& scoring_memo() {
  thread_local ScoreMemo memo;
  return memo;
}

NetScorer& scoring_scorer() {
  thread_local NetScorer scorer(scoring_table());
  return scorer;
}

}  // namespace

IrregularCongestionMap IrregularGridModel::evaluate(
    std::span<const TwoPinNet> nets, const Rect& chip) const {
  obs::count(obs::Counter::kIrEvaluations);
  // Algorithm steps 1-2: cut lines from routing ranges, then merge lines
  // closer than twice the fine pitch.
  CutLines lines =
      build_cutlines(nets, chip, params_.merge_factor * params_.grid_w,
                     params_.merge_factor * params_.grid_h);
  const std::size_t cells = static_cast<std::size_t>(lines.cell_count());

  // Steps 3-4, parallel: nets are partitioned into blocks (boundaries a
  // function of the net count only — NOT the thread count), every block
  // accumulates into a private partial grid, and the partials are reduced
  // in block order below. Fixed blocking + ordered reduction make the
  // result bit-identical for every FICON_THREADS setting.
  const int blocks = deterministic_block_count(nets.size());
  // Per-caller-thread partial grids, reused across evaluate() calls (the
  // annealing loop calls this once per proposed move). Workers only write
  // the entry of their own block; the vector itself is sized before the
  // fork and reduced after the join, both on the calling thread. The
  // worker lambda must go through the local reference: naming the
  // thread_local directly inside it would resolve to the *worker's*
  // (empty) instance, not the caller's.
  thread_local std::vector<std::vector<double>> partial_tls;
  std::vector<std::vector<double>>& partial = partial_tls;
  if (partial.size() < static_cast<std::size_t>(blocks)) {
    partial.resize(static_cast<std::size_t>(blocks));
  }
  const CutLines& cl = lines;
  const IrregularGridParams& params = params_;
  const std::uint64_t fingerprint = scoring_fingerprint(params_);
  ThreadPool::global().run(blocks, [&](int b) {
    ScoreMemo& memo = scoring_memo();
    memo.configure(params.score_cache_capacity, fingerprint);
    NetScorer& scorer = scoring_scorer();
    scorer.bind(params, memo);
    std::vector<double>& flow = partial[static_cast<std::size_t>(b)];
    flow.assign(cells, 0.0);
    const FlowGrid out{&flow, cl.nx(), cl.ny()};
    const BlockRange range = block_range(nets.size(), blocks, b);
    for (std::size_t i = range.begin; i < range.end; ++i) {
      scorer.score(nets[i], cl, chip, out);
    }
  });

  // Ordered reduction (block 0 first, block N-1 last in every cell), in
  // parallel over contiguous cell ranges: each cell sums its partials in
  // block order whichever thread takes its range, so the result does not
  // depend on the thread count.
  std::vector<double> flow(cells, 0.0);
  const int ranges = deterministic_block_count(cells);
  ThreadPool::global().run(ranges, [&](int r) {
    const BlockRange cell_range = block_range(cells, ranges, r);
    for (int b = 0; b < blocks; ++b) {
      const std::vector<double>& p = partial[static_cast<std::size_t>(b)];
      for (std::size_t i = cell_range.begin; i < cell_range.end; ++i) {
        flow[i] += p[i];
      }
    }
  });
  return IrregularCongestionMap(std::move(lines), std::move(flow));
}

}  // namespace ficon
