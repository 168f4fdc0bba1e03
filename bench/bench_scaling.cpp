// Complexity experiment (paper section 4.7): the time of the IR-grid
// algorithm is O(n * #IR-grids), which is formally O(n^3) but far below it
// in practice "because a lot of cutting-lines will duplicate" and merging
// removes more. Sweep a soft-block scaling ladder and report, per size:
// two-pin net count n, IR-grid count vs n^2, and single-evaluation times
// for the IR model and fixed grids.
#include <iostream>

#include "bench_common.hpp"
#include "ficon.hpp"

using namespace ficon;
using bench::timed_ms;

int run_bench() {
  const int max_modules = env_int("FICON_SCALING_MAX", 200);
  std::cout << "Scaling — IR-grid count and evaluation time vs circuit size "
               "(soft-block ladder)\n";

  TextTable table({"modules", "2-pin nets n", "#IR-grids", "n^2",
                   "IR/n^2 (%)", "IR eval (ms)", "fixed 50um (ms)",
                   "fixed 10um (ms)"});
  for (const int m : {25, 50, 100, 200, 400}) {
    if (m > max_modules) break;
    const Netlist netlist = make_scaling_circuit(m);
    FloorplanOptions o;
    o.effort = 0.15;
    o.anneal.stop_temperature_ratio = 1e-2;
    const FloorplanSolution sol = Floorplanner(netlist, o).run();
    const auto nets = decompose_to_two_pin(netlist, sol.placement);
    const Rect chip = sol.placement.chip;
    const double n = static_cast<double>(nets.size());

    IrregularGridParams ir_params;
    ir_params.grid_w = ir_params.grid_h = 30.0;
    const IrregularGridModel ir(ir_params);
    const long long ir_cells = ir.evaluate(nets, chip).cell_count();

    const int repeats = m <= 100 ? 5 : 2;
    const double ir_ms =
        timed_ms([&] { ir.cost(nets, chip); }, repeats);
    const FixedGridModel f50(FixedGridParams{50, 50, 0.10});
    const double f50_ms = timed_ms([&] { f50.cost(nets, chip); }, repeats);
    const FixedGridModel f10(FixedGridParams{10, 10, 0.10});
    const double f10_ms = timed_ms([&] { f10.cost(nets, chip); }, repeats);

    table.add_row({std::to_string(m), fmt_fixed(n, 0),
                   std::to_string(ir_cells), fmt_fixed(n * n, 0),
                   fmt_fixed(100.0 * static_cast<double>(ir_cells) / (n * n),
                             2),
                   fmt_fixed(ir_ms, 2), fmt_fixed(f50_ms, 2),
                   fmt_fixed(f10_ms, 2)});
  }
  table.print(std::cout);
  std::cout << "(paper section 4.7: the IR-grid count stays far below n^2; "
               "evaluation effort scales with it)\n";
  return 0;
}

int main() { return ficon::bench::guarded_main("bench_scaling", run_bench); }
