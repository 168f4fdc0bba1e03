// Table 4 reproduction: congestion-only optimization (alpha = beta = 0)
// with the Irregular-Grid model on ami33 (grid 30x30 um^2). Reports the
// number of IR-grids of the final solution, the IR cost (paper's x100
// scale), run time, and the judging verdict.
#include <iostream>

#include "bench_common.hpp"
#include "ficon.hpp"

using namespace ficon;

int run_bench() {
  const ExperimentConfig config = experiment_config_from_env();
  const std::string circuit = env_string("FICON_T4_CIRCUIT", "ami33");
  std::cout << "Table 4 — congestion-only optimization with the "
               "Irregular-Grid model (" << circuit << ", 30x30 um^2)\n";
  print_scale_banner(config);

  const Netlist netlist = make_mcnc(circuit);
  const FixedGridModel judge = make_judging_model(config.judging_pitch);
  FloorplanOptions options = bench::tuned_options(config);
  options.objective.alpha = 0.0;
  options.objective.beta = 0.0;
  options.objective.gamma = 1.0;
  options.objective.model = CongestionModelKind::kIrregularGrid;
  options.objective.irregular = bench::paper_ir_params(circuit);
  const SeedSweep sweep = run_seed_sweep(netlist, options, config.seeds, judge);

  // "# of IR-grid": evaluate the model once on each final placement.
  const IrregularGridModel model(options.objective.irregular);
  RunningStats cells;
  for (const JudgedRun& run : sweep.runs) {
    const auto nets = decompose_to_two_pin(netlist, run.solution.placement);
    cells.add(static_cast<double>(
        model.evaluate(nets, run.solution.placement.chip).cell_count()));
  }
  const JudgedRun& best = sweep.best();
  const auto best_nets = decompose_to_two_pin(netlist, best.solution.placement);
  const long long best_cells =
      model.evaluate(best_nets, best.solution.placement.chip).cell_count();

  TextTable table({"grid (um)", "avg #IR-grids", "avg IR cgt (x100)",
                   "avg time (s)", "avg judging cgt", "best #IR-grids",
                   "best IR cgt (x100)", "best time (s)",
                   "best judging cgt"});
  table.add_row({"30x30", fmt_fixed(cells.mean(), 0),
                 fmt_fixed(sweep.mean_congestion() * 100.0, 4),
                 fmt_fixed(sweep.mean_seconds(), 1),
                 fmt_fixed(sweep.mean_judging(), 5),
                 std::to_string(best_cells),
                 fmt_fixed(best.solution.metrics.congestion * 100.0, 4),
                 fmt_fixed(best.solution.seconds, 1),
                 fmt_fixed(best.judging_cost, 6)});
  table.print(std::cout);
  std::cout << "(paper Table 4: 589 IR-grids, 27.7 s, judging 0.21239 on "
               "their testbed; compare against Table 5's fixed-grid runs)\n";
  return 0;
}

int main() { return ficon::bench::guarded_main("bench_table4", run_bench); }
