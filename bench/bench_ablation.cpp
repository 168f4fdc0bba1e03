// Ablations of the design choices DESIGN.md calls out:
//   1. Cut-line merge factor (algorithm step 2): IR-cell count, cost and
//      evaluation time as the merge threshold sweeps around the paper's
//      "2x the grid pitch".
//   2. Evaluation strategy inside the annealer: Theorem 1 (paper),
//      exact-per-region, banded-exact (our fast path) — quality of the
//      final judged solution and run time.
#include <iostream>

#include "bench_common.hpp"
#include "ficon.hpp"

using namespace ficon;

int run_bench() {
  const ExperimentConfig config = experiment_config_from_env();
  const std::string circuit = env_string("FICON_T4_CIRCUIT", "ami33");
  std::cout << "Ablation 1 — cut-line merge factor (" << circuit << ")\n";
  print_scale_banner(config);

  const Netlist netlist = make_mcnc(circuit);
  FloorplanOptions pack_opts = bench::tuned_options(config);
  const FloorplanSolution sol = Floorplanner(netlist, pack_opts).run();
  const auto nets = decompose_to_two_pin(netlist, sol.placement);

  TextTable merge_table(
      {"merge factor", "#IR-cells", "top-10% cost (x1000)", "eval time (ms)"});
  for (const double factor : {0.0, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    IrregularGridParams params = bench::paper_ir_params(circuit);
    params.merge_factor = factor;
    const IrregularGridModel model(params);
    Stopwatch sw;
    const IrregularCongestionMap map = model.evaluate(nets, sol.placement.chip);
    const double ms = sw.milliseconds();
    merge_table.add_row({fmt_fixed(factor, 1),
                         std::to_string(map.cell_count()),
                         fmt_fixed(map.top_fraction_cost(0.10) * 1000.0, 4),
                         fmt_fixed(ms, 2)});
  }
  merge_table.print(std::cout);
  std::cout << "(why step 2 exists: without merging, sliver cells of "
               "near-zero area dominate the density cost and the cell count "
               "explodes; the paper's factor 2.0 sits at the knee)\n\n";

  std::cout << "Ablation 2 — evaluation strategy inside congestion-only "
               "annealing (" << circuit << ", seeds=" << config.seeds << ")\n";
  const FixedGridModel judge = make_judging_model(config.judging_pitch);
  TextTable strategy_table(
      {"strategy", "avg judged cgt", "avg SA time (s)"});
  const auto run_strategy = [&](const IrregularGridParams& params,
                                const char* name) {
    FloorplanOptions options = bench::tuned_options(config);
    options.objective.alpha = 0.0;
    options.objective.beta = 0.0;
    options.objective.gamma = 1.0;
    options.objective.model = CongestionModelKind::kIrregularGrid;
    options.objective.irregular = params;
    const SeedSweep sweep =
        run_seed_sweep(netlist, options, config.seeds, judge);
    strategy_table.add_row({name, fmt_fixed(sweep.mean_judging(), 5),
                            fmt_fixed(sweep.mean_seconds(), 2)});
  };
  run_strategy(bench::paper_ir_params(circuit), "banded exact (default)");
  run_strategy(bench::paper_mode_params(circuit),
               "Theorem 1 (paper mode, approximation active)");
  IrregularGridParams exact_params = bench::paper_ir_params(circuit);
  exact_params.strategy = IrEvalStrategy::kExactPerRegion;
  run_strategy(exact_params, "exact per region");
  strategy_table.print(std::cout);
  std::cout << "(same estimator semantics: solution quality should match "
               "within annealing noise; times differ)\n";
  return 0;
}

int main() { return ficon::bench::guarded_main("bench_ablation", run_bench); }
