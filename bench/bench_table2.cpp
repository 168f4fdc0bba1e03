// Table 2 reproduction: floorplanner additionally optimizing the
// Irregular-Grid congestion estimate (alpha*Area + beta*Wire +
// gamma*Congestion). Reports the IR-grid cost in the paper's x1000 scale
// alongside the judging model's verdict.
#include <iostream>

#include "bench_common.hpp"

using namespace ficon;

int run_bench() {
  obs::set_thread_label("main");
  const ExperimentConfig config = experiment_config_from_env();
  std::cout << "Table 2 — results with the Irregular-Grid model in the "
               "objective (grid size 60x60 um^2 for apte, 30x30 otherwise)\n";
  print_scale_banner(config);

  const FixedGridModel judge = make_judging_model(config.judging_pitch);
  TextTable table({"circuit", "grid (um)", "avg area (mm^2)", "avg wire (um)",
                   "avg IR cgt (x1000)", "avg time (s)", "avg judging cgt",
                   "best area (mm^2)", "best wire (um)",
                   "best IR cgt (x1000)", "best time (s)",
                   "best judging cgt"});
  for (const std::string& circuit : config.circuits) {
    const Netlist netlist = make_mcnc(circuit);
    FloorplanOptions options = bench::tuned_options(config);
    options.objective.alpha = 1.0;
    options.objective.beta = 1.0;
    options.objective.gamma = bench::congestion_gamma();
    options.objective.model = CongestionModelKind::kIrregularGrid;
    options.objective.irregular = bench::paper_ir_params(circuit);
    const SeedSweep sweep =
        run_seed_sweep(netlist, options, config.seeds, judge);
    const JudgedRun& best = sweep.best();
    const double pitch = options.objective.irregular.grid_w;
    table.add_row({circuit, fmt_fixed(pitch, 0) + "x" + fmt_fixed(pitch, 0),
                   fmt_fixed(sweep.mean_area() / 1e6, 2),
                   fmt_fixed(sweep.mean_wirelength(), 0),
                   fmt_fixed(sweep.mean_congestion() * 1000.0, 4),
                   fmt_fixed(sweep.mean_seconds(), 1),
                   fmt_fixed(sweep.mean_judging(), 6),
                   fmt_fixed(best.solution.metrics.area / 1e6, 2),
                   fmt_fixed(best.solution.metrics.wirelength, 0),
                   fmt_fixed(best.solution.metrics.congestion * 1000.0, 4),
                   fmt_fixed(best.solution.seconds, 1),
                   fmt_fixed(best.judging_cost, 6)});
  }
  table.print(std::cout);
  std::cout << "(paper Table 2 shape: small area/wire penalty vs Table 1, "
               "judged congestion consistently lower)\n";
  obs::emit_env_trace(std::cout, "bench_table2");
  return 0;
}

int main() { return ficon::bench::guarded_main("bench_table2", run_bench); }
