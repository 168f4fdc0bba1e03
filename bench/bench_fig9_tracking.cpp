// Figure 9 reproduction (Experiment 2): does the Irregular-Grid estimate
// track the "real" congestion during floorplanning?
//
// A congestion-only annealing run on ami33 is snapshotted at every
// temperature-dropping step; each intermediate (locally optimized) solution
// is scored by
//   A — the Irregular-Grid model (30x30 um^2 fine pitch),
//   B — the judging model at 10x10 um^2 (paper plots 2.5 * B),
//   C — the judging model at 50x50 um^2.
// The paper's claim: A's slope tracks B's better than C's. We print the
// three series in obtaining order plus correlation statistics.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "ficon.hpp"

using namespace ficon;

int run_bench() {
  const ExperimentConfig config = experiment_config_from_env();
  const std::string circuit = env_string("FICON_T4_CIRCUIT", "ami33");
  std::cout << "Figure 9 — model tracking during congestion-only annealing ("
            << circuit << ")\n";
  print_scale_banner(config);

  const Netlist netlist = make_mcnc(circuit);
  FloorplanOptions options = bench::tuned_options(config);
  options.objective.alpha = 0.0;
  options.objective.beta = 0.0;
  options.objective.gamma = 1.0;
  options.objective.model = CongestionModelKind::kIrregularGrid;
  options.objective.irregular = bench::paper_ir_params(circuit);
  options.seed = 2;

  const FixedGridModel judge_fine = make_judging_model(10.0);
  const FixedGridModel judge_coarse = make_judging_model(50.0);

  std::vector<double> a_series, b_series, c_series;
  const Floorplanner planner(netlist, options);
  planner.run([&](const TemperatureSnapshot& snap) {
    const auto nets = decompose_to_two_pin(netlist, snap.placement);
    a_series.push_back(snap.metrics.congestion);
    b_series.push_back(judge_fine.cost(nets, snap.placement.chip));
    c_series.push_back(judge_coarse.cost(nets, snap.placement.chip));
  });

  // The paper plots 20 evenly spaced intermediate solutions.
  const std::size_t points = std::min<std::size_t>(20, a_series.size());
  TextTable table({"#", "A: IR-grid", "B: judging 10um (x2.5)",
                   "C: judging 50um"});
  for (std::size_t i = 0; i < points; ++i) {
    const std::size_t idx = i * (a_series.size() - 1) / std::max<std::size_t>(1, points - 1);
    table.add_row({std::to_string(i + 1), fmt_general(a_series[idx], 5),
                   fmt_general(2.5 * b_series[idx], 5),
                   fmt_general(c_series[idx], 5)});
  }
  table.print(std::cout);

  const auto diffs = [](const std::vector<double>& v) {
    std::vector<double> d;
    for (std::size_t i = 1; i < v.size(); ++i) d.push_back(v[i] - v[i - 1]);
    return d;
  };
  const double corr_ab = pearson(a_series, b_series);
  const double corr_ac = pearson(a_series, c_series);
  const double corr_bc = pearson(b_series, c_series);
  const std::vector<double> da = diffs(a_series), db = diffs(b_series),
                            dc = diffs(c_series);
  std::cout << "corr(A, B fine judging)   = " << fmt_fixed(corr_ab, 3)
            << "   slope corr = " << fmt_fixed(pearson(da, db), 3) << '\n';
  std::cout << "corr(A, C coarse judging) = " << fmt_fixed(corr_ac, 3)
            << "   slope corr = " << fmt_fixed(pearson(da, dc), 3) << '\n';
  std::cout << "corr(B, C)                = " << fmt_fixed(corr_bc, 3) << '\n';
  if (corr_ab >= 0.7) {
    std::cout << "-> Experiment 2's substantive claim reproduces: the "
                 "IR-grid estimate tracks the judging model through the "
                 "annealing trajectory.\n";
  } else {
    std::cout << "-> WARNING: weak tracking on this seed; rerun with "
                 "FICON_SCALE>=1 for longer trajectories.\n";
  }
  std::cout << "(The paper additionally reads A-B slopes as more similar "
               "than A-C. In our reproduction B and C are themselves nearly "
               "identical (corr(B,C) above), so that ordering is within "
               "noise; see EXPERIMENTS.md.)\n";
  return 0;
}

int main() { return ficon::bench::guarded_main("bench_fig9_tracking", run_bench); }
