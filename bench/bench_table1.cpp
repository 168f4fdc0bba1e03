// Table 1 reproduction: floorplanner optimizing area and wirelength only
// (no congestion term). Columns mirror the paper: area (mm^2), wire length
// (um), run time (s), and the judging model's congestion verdict, for the
// average and the best of the seed sweep.
#include <iostream>

#include "bench_common.hpp"
#include "ficon.hpp"

using namespace ficon;

int run_bench() {
  const ExperimentConfig config = experiment_config_from_env();
  std::cout << "Table 1 — results with area+wirelength objective "
               "(fixed-size-grid judging at "
            << config.judging_pitch << "x" << config.judging_pitch
            << " um^2)\n";
  print_scale_banner(config);

  const FixedGridModel judge = make_judging_model(config.judging_pitch);
  TextTable table({"circuit", "avg area (mm^2)", "avg wire (um)",
                   "avg time (s)", "avg judging cgt", "best area (mm^2)",
                   "best wire (um)", "best time (s)", "best judging cgt"});
  for (const std::string& circuit : config.circuits) {
    const Netlist netlist = make_mcnc(circuit);
    FloorplanOptions options = bench::tuned_options(config);
    options.objective.alpha = 1.0;
    options.objective.beta = 1.0;
    const SeedSweep sweep =
        run_seed_sweep(netlist, options, config.seeds, judge);
    const JudgedRun& best = sweep.best();
    table.add_row({circuit, fmt_fixed(sweep.mean_area() / 1e6, 2),
                   fmt_fixed(sweep.mean_wirelength(), 0),
                   fmt_fixed(sweep.mean_seconds(), 1),
                   fmt_fixed(sweep.mean_judging(), 6),
                   fmt_fixed(best.solution.metrics.area / 1e6, 2),
                   fmt_fixed(best.solution.metrics.wirelength, 0),
                   fmt_fixed(best.solution.seconds, 1),
                   fmt_fixed(best.judging_cost, 6)});
  }
  table.print(std::cout);
  std::cout << "(paper Table 1 shapes: areas within ~1.3x of module totals; "
               "judging congestion highest for ami33)\n";
  return 0;
}

int main() { return ficon::bench::guarded_main("bench_table1", run_bench); }
