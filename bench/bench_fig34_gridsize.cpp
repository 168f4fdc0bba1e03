// Figures 3 and 4 reproduction (the motivation for the Irregular-Grid):
// on the fixed-size-grid model,
//   * the congestion picture depends on the arbitrary grid pitch
//     (Figure 3: the hottest cells move between a 4x4 and a 6x6 cut), and
//   * finer pitches waste work on near-empty cells (Figure 4: at 12x8,
//     "more than a half of grids only being passed through by one net").
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "ficon.hpp"

using namespace ficon;

namespace {

/// Five nets clustered on the right half of a 600x400 chip, echoing the
/// didactic layouts of Figures 3/4.
std::vector<TwoPinNet> didactic_nets() {
  return {
      {Point{320, 60}, Point{560, 220}, 0},
      {Point{360, 100}, Point{520, 340}, 1},
      {Point{400, 40}, Point{580, 300}, 2},
      {Point{340, 180}, Point{590, 360}, 3},
      {Point{50, 60}, Point{220, 160}, 4},   // one lonely net on the left
      {Point{380, 250}, Point{540, 390}, 5},
  };
}

struct HotCell {
  int x, y;
  double value;
};

HotCell hottest(const CongestionMap& map) {
  HotCell best{0, 0, -1.0};
  for (int y = 0; y < map.grid().ny(); ++y) {
    for (int x = 0; x < map.grid().nx(); ++x) {
      if (map.at(x, y) > best.value) best = HotCell{x, y, map.at(x, y)};
    }
  }
  return best;
}

CongestionMap evaluate_counts(const std::vector<TwoPinNet>& nets,
                              const Rect& chip, int nx, int ny) {
  const GridSpec grid = GridSpec::from_counts(chip, nx, ny);
  const FixedGridModel model(
      FixedGridParams{grid.pitch_x(), grid.pitch_y(), 0.10});
  return model.evaluate(nets, chip);
}

}  // namespace

int run_bench() {
  const Rect chip{0, 0, 600, 400};
  const auto nets = didactic_nets();

  std::cout << "Figure 3 — the hot spot moves with the grid pitch\n";
  TextTable fig3({"cut", "hottest cell (fraction of chip)", "value",
                  "top-10% cost"});
  for (const auto& [nx, ny] : std::vector<std::pair<int, int>>{
           {4, 4}, {6, 6}, {12, 8}, {24, 16}}) {
    const CongestionMap map = evaluate_counts(nets, chip, nx, ny);
    const HotCell hot = hottest(map);
    // Built up with += (operator+ on a char* left operand trips gcc 12's
    // -Wrestrict false positive, PR105329, once inlining gets deep).
    std::string where = "(";
    where += fmt_fixed((hot.x + 0.5) / nx, 2);
    where += ", ";
    where += fmt_fixed((hot.y + 0.5) / ny, 2);
    where += ")";
    fig3.add_row({std::to_string(nx) + "x" + std::to_string(ny), where,
                  fmt_fixed(hot.value, 3),
                  fmt_fixed(map.top_fraction_cost(0.10), 4)});
  }
  fig3.print(std::cout);
  std::cout << "(the normalized hot-spot location and the cost level shift "
               "between cuts — the Figure 3 defect)\n\n";

  std::cout << "Figure 4 — fine fixed grids waste work on near-empty cells\n";
  TextTable fig4({"cut", "#cells", "cells with <=1 net (%)",
                  "cells untouched (%)"});
  for (const auto& [nx, ny] : std::vector<std::pair<int, int>>{
           {6, 4}, {12, 8}, {24, 16}, {48, 32}}) {
    const CongestionMap map = evaluate_counts(nets, chip, nx, ny);
    long long low = 0, zero = 0;
    for (const double v : map.values()) {
      if (v <= 1.0 + 1e-9) ++low;
      if (v <= 1e-12) ++zero;
    }
    const double total = static_cast<double>(map.values().size());
    fig4.add_row({std::to_string(nx) + "x" + std::to_string(ny),
                  std::to_string(map.values().size()),
                  fmt_fixed(100.0 * static_cast<double>(low) / total, 1),
                  fmt_fixed(100.0 * static_cast<double>(zero) / total, 1)});
  }
  fig4.print(std::cout);

  // The Irregular-Grid answer to the same workload.
  IrregularGridParams params;
  params.grid_w = 25.0;
  params.grid_h = 25.0;
  const IrregularGridModel ir(params);
  const IrregularCongestionMap ir_map = ir.evaluate(nets, chip);
  std::cout << "\nIrregular-Grid on the same nets: " << ir_map.cell_count()
            << " IR-cells (vs " << 48 * 32
            << " at the finest fixed cut), top-10%-area cost "
            << fmt_general(ir_map.top_fraction_cost(0.10), 4)
            << " — evaluation effort concentrates on the congested right "
               "half (paper section 4.1)\n";
  return 0;
}

int main() { return ficon::bench::guarded_main("bench_fig34_gridsize", run_bench); }
