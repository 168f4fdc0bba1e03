#include "congestion/fixed_grid.hpp"

#include <cmath>

#include "congestion/path_prob.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace ficon {

namespace {

/// Accumulate one net's cell-crossing probabilities (Formula 2) into a
/// partial grid (row-major like CongestionMap::values()).
void accumulate_net(const TwoPinNet& net, const GridSpec& grid,
                    const PathProbability& exact, std::vector<double>& row,
                    std::vector<double>& flow) {
  const auto add = [&](int cx, int cy, double p) {
    flow[static_cast<std::size_t>(cy) * static_cast<std::size_t>(grid.nx()) +
         static_cast<std::size_t>(cx)] += p;
  };
  const SpannedNet s = span_net(grid, net);
  const int g1 = s.shape.g1;
  const int g2 = s.shape.g2;

  if (s.shape.degenerate()) {
    // Point or line routing range: the single possible route crosses
    // every covered cell with probability 1.
    for (int ly = 0; ly < g2; ++ly) {
      for (int lx = 0; lx < g1; ++lx) {
        add(s.origin.x + lx, s.origin.y + ly, 1.0);
      }
    }
    return;
  }

  // Work in the canonical type I frame (source cell (0,0), sink
  // (g1-1,g2-1)); a type II net is accumulated with its y mirrored, one
  // contiguous row of Formula 2 values at a time.
  const NetGridShape canonical{g1, g2, false};
  exact.for_each_cell_row(canonical, row, [&](int ly,
                                              std::span<const double> probs) {
    const int gy = s.origin.y + (s.shape.type2 ? (g2 - 1 - ly) : ly);
    for (int lx = 0; lx < g1; ++lx) {
      add(s.origin.x + lx, gy, probs[static_cast<std::size_t>(lx)]);
    }
  });
}

}  // namespace

CongestionMap FixedGridModel::evaluate(std::span<const TwoPinNet> nets,
                                       const Rect& chip) const {
  obs::count(obs::Counter::kFixedEvaluations);
  obs::count(obs::Counter::kFixedNetsScored,
             static_cast<long long>(nets.size()));
  const GridSpec grid =
      GridSpec::from_pitch(chip, params_.grid_w, params_.grid_h);
  CongestionMap map(grid);
  const std::size_t cells = static_cast<std::size_t>(grid.cell_count());

  // Parallel per-net accumulation: blocks of nets (boundaries depend only
  // on the net count) write into private partial grids, reduced in block
  // order — bit-identical for every FICON_THREADS setting.
  const int blocks = deterministic_block_count(nets.size());
  std::vector<std::vector<double>> partial(static_cast<std::size_t>(blocks));
  ThreadPool::global().run(blocks, [&](int b) {
    thread_local LogFactorialTable table;  // race-free per-thread cache
    const PathProbability exact(table);
    std::vector<double> row;
    std::vector<double>& flow = partial[static_cast<std::size_t>(b)];
    flow.assign(cells, 0.0);
    const BlockRange range = block_range(nets.size(), blocks, b);
    for (std::size_t i = range.begin; i < range.end; ++i) {
      accumulate_net(nets[i], grid, exact, row, flow);
    }
  });

  for (const std::vector<double>& p : partial) map.merge(p);
  return map;
}

}  // namespace ficon
