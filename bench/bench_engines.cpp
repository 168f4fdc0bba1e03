// Floorplanner-agnosticism check (paper section 4.6: the model "can be
// embedded into any general floorplanners"): run the area+wire baseline and
// the IR-congestion-driven objective under BOTH floorplan representations
// (the paper's Polish-expression slicing engine and a sequence-pair
// non-slicing engine) and verify the judged-congestion improvement appears
// in each.
#include <iostream>

#include "bench_common.hpp"
#include "ficon.hpp"

using namespace ficon;

int run_bench() {
  const ExperimentConfig config = experiment_config_from_env();
  const std::string circuit = env_string("FICON_T4_CIRCUIT", "ami33");
  std::cout << "Engine comparison — IR-congestion objective under two "
               "floorplan representations (" << circuit << ")\n";
  print_scale_banner(config);

  const Netlist netlist = make_mcnc(circuit);
  const FixedGridModel judge = make_judging_model(config.judging_pitch);

  TextTable table({"engine", "objective", "avg area (mm^2)", "avg wire (um)",
                   "avg judging cgt", "avg time (s)"});
  for (const auto& [engine, engine_name] :
       std::vector<std::pair<FloorplanEngine, const char*>>{
           {FloorplanEngine::kPolishExpression, "Polish (paper)"},
           {FloorplanEngine::kSequencePair, "sequence pair"}}) {
    for (const bool congestion_driven : {false, true}) {
      FloorplanOptions options = bench::tuned_options(config);
      options.engine = engine;
      if (congestion_driven) {
        options.objective.gamma = bench::congestion_gamma();
        options.objective.model = CongestionModelKind::kIrregularGrid;
        options.objective.irregular = bench::paper_ir_params(circuit);
      }
      const SeedSweep sweep =
          run_seed_sweep(netlist, options, config.seeds, judge);
      table.add_row({engine_name,
                     congestion_driven ? "area+wire+IR cgt" : "area+wire",
                     fmt_fixed(sweep.mean_area() / 1e6, 3),
                     fmt_fixed(sweep.mean_wirelength(), 0),
                     fmt_fixed(sweep.mean_judging(), 4),
                     fmt_fixed(sweep.mean_seconds(), 1)});
    }
  }
  table.print(std::cout);
  std::cout << "(expected shape: within each engine, the +IR row judges "
               "lower than the baseline row)\n";
  return 0;
}

int main() { return ficon::bench::guarded_main("bench_engines", run_bench); }
