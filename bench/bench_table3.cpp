// Table 3 reproduction: improvement of the congestion-driven floorplanner
// (Table 2 configuration) over the area+wire baseline (Table 1
// configuration), as signed percentages. Positive = improvement, as in the
// paper; the headline result is a consistent judged-congestion gain at a
// small area/wire penalty.
#include <iostream>

#include "bench_common.hpp"

using namespace ficon;

namespace {
double improvement(double base, double with) {
  return base != 0.0 ? (base - with) / base : 0.0;
}
}  // namespace

int run_bench() {
  const ExperimentConfig config = experiment_config_from_env();
  std::cout << "Table 3 — improvement of the congestion-driven floorplanner "
               "over the area+wire baseline (positive % = better)\n";
  print_scale_banner(config);

  const FixedGridModel judge = make_judging_model(config.judging_pitch);
  TextTable table({"circuit", "avg area (%)", "avg wire (%)",
                   "avg judging cgt (%)", "best area (%)", "best wire (%)",
                   "best judging cgt (%)"});
  double sum_avg_gain = 0.0;
  for (const std::string& circuit : config.circuits) {
    const Netlist netlist = make_mcnc(circuit);

    FloorplanOptions baseline = bench::tuned_options(config);
    baseline.objective.alpha = 1.0;
    baseline.objective.beta = 1.0;
    const SeedSweep base =
        run_seed_sweep(netlist, baseline, config.seeds, judge);

    FloorplanOptions driven = baseline;
    driven.objective.gamma = bench::congestion_gamma();
    driven.objective.model = CongestionModelKind::kIrregularGrid;
    driven.objective.irregular = bench::paper_ir_params(circuit);
    const SeedSweep cgt = run_seed_sweep(netlist, driven, config.seeds, judge);

    const JudgedRun& bb = base.best();
    const JudgedRun& cb = cgt.best();
    table.add_row(
        {circuit,
         fmt_percent(improvement(base.mean_area(), cgt.mean_area())),
         fmt_percent(
             improvement(base.mean_wirelength(), cgt.mean_wirelength())),
         fmt_percent(improvement(base.mean_judging(), cgt.mean_judging())),
         fmt_percent(improvement(bb.solution.metrics.area,
                                 cb.solution.metrics.area)),
         fmt_percent(improvement(bb.solution.metrics.wirelength,
                                 cb.solution.metrics.wirelength)),
         fmt_percent(improvement(bb.judging_cost, cb.judging_cost))});
    sum_avg_gain += improvement(base.mean_judging(), cgt.mean_judging());
  }
  table.print(std::cout);
  std::cout << "mean judged-congestion improvement across circuits: "
            << fmt_percent(sum_avg_gain /
                           static_cast<double>(config.circuits.size()))
            << " % (paper Table 3: +2% .. +20% on averages)\n";
  return 0;
}

int main() { return ficon::bench::guarded_main("bench_table3", run_bench); }
