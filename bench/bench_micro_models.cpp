// Microbenchmark (google-benchmark): single-evaluation cost of each
// congestion model on fixed placements of the MCNC circuits — the
// apples-to-apples version of Experiment 3's run-time claim (the IR-grid
// model evaluates faster than fine fixed grids while judging better).
//
// Every row re-scores the same placement, so the headline IR rows run
// with the score memo off: they time the cold path an annealer pays for
// each new candidate. The `theorem1_warm_memo` rows keep the default memo
// and time repeat evaluations answered from it — a different quantity,
// reported under its own label.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "ficon.hpp"

namespace {

using namespace ficon;

/// One packed placement per circuit, built once.
struct Workload {
  Rect chip;
  std::vector<TwoPinNet> nets;
};

const Workload& workload(const std::string& circuit) {
  static std::map<std::string, Workload> cache;
  auto it = cache.find(circuit);
  if (it == cache.end()) {
    const Netlist netlist = make_mcnc(circuit);
    FloorplanOptions options;
    options.effort = 0.2;
    options.anneal.stop_temperature_ratio = 1e-2;
    const FloorplanSolution sol = Floorplanner(netlist, options).run();
    Workload w;
    w.chip = sol.placement.chip;
    w.nets = decompose_to_two_pin(netlist, sol.placement);
    it = cache.emplace(circuit, std::move(w)).first;
  }
  return it->second;
}

void BM_FixedGrid(benchmark::State& state, const std::string& circuit,
                  double pitch) {
  const Workload& w = workload(circuit);
  const FixedGridModel model(FixedGridParams{pitch, pitch, 0.10});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.cost(w.nets, w.chip));
  }
  state.SetLabel(circuit + " @" + std::to_string(static_cast<int>(pitch)) +
                 "um");
}

void BM_IrregularGrid(benchmark::State& state, const std::string& circuit,
                      IrEvalStrategy strategy, bool warm_memo,
                      const char* label) {
  const Workload& w = workload(circuit);
  IrregularGridParams params;
  params.grid_w = 30.0;
  params.grid_h = 30.0;
  params.strategy = strategy;
  if (!warm_memo) params.score_cache_capacity = 0;
  if (strategy == IrEvalStrategy::kTheorem1) {
    // Measure the paper's approximation itself, not the accuracy-first
    // exact fallbacks (which would swallow most MCNC-scale ranges).
    params.approx.narrow_range_threshold = 5;
    params.approx.small_region_threshold = 4;
  }
  const IrregularGridModel model(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.cost(w.nets, w.chip));
  }
  state.SetLabel(circuit + " " + label);
}

void register_all() {
  for (const char* circuit : {"ami33", "ami49"}) {
    for (const double pitch : {100.0, 50.0, 10.0}) {
      benchmark::RegisterBenchmark(
          (std::string("fixed_grid/") + circuit + "/" +
           std::to_string(static_cast<int>(pitch)) + "um")
              .c_str(),
          [circuit, pitch](benchmark::State& s) {
            BM_FixedGrid(s, circuit, pitch);
          });
    }
    benchmark::RegisterBenchmark(
        (std::string("irregular/") + circuit + "/theorem1").c_str(),
        [circuit](benchmark::State& s) {
          BM_IrregularGrid(s, circuit, IrEvalStrategy::kTheorem1, false,
                           "theorem1 (cold)");
        });
    benchmark::RegisterBenchmark(
        (std::string("irregular/") + circuit + "/banded_exact").c_str(),
        [circuit](benchmark::State& s) {
          BM_IrregularGrid(s, circuit, IrEvalStrategy::kBandedExact, false,
                           "banded (cold)");
        });
    benchmark::RegisterBenchmark(
        (std::string("irregular/") + circuit + "/theorem1_warm_memo").c_str(),
        [circuit](benchmark::State& s) {
          BM_IrregularGrid(s, circuit, IrEvalStrategy::kTheorem1, true,
                           "theorem1 (warm memo: repeat placement)");
        });
  }
}

/// The Experiment 3 mechanism, independent of implementation constants:
/// how many cell regions each model touches per evaluation.
void print_workload_summary() {
  for (const char* circuit : {"ami33", "ami49"}) {
    const Workload& w = workload(circuit);
    printf("%s: %zu two-pin nets, chip %.2f x %.2f mm\n", circuit,
           w.nets.size(), w.chip.width() / 1e3, w.chip.height() / 1e3);
    for (const double pitch : {100.0, 50.0, 10.0}) {
      const GridSpec grid = GridSpec::from_pitch(w.chip, pitch, pitch);
      long long updates = 0;
      for (const TwoPinNet& net : w.nets) {
        const SpannedNet s = span_net(grid, net);
        updates += static_cast<long long>(s.shape.g1) * s.shape.g2;
      }
      printf("  fixed %3.0fum: %7lld cell updates over %lld grid cells\n",
             pitch, updates, grid.cell_count());
    }
    IrregularGridParams params;
    params.grid_w = 30.0;
    params.grid_h = 30.0;
    const IrregularGridModel model(params);
    const IrregularCongestionMap map = model.evaluate(w.nets, w.chip);
    long long regions = 0;
    const CutLines& cl = map.lines();
    for (const TwoPinNet& net : w.nets) {
      const Rect r = net.routing_range().intersection(w.chip);
      if (!r.valid()) continue;
      const long long nx = std::abs(cl.nearest_x(r.xhi) - cl.nearest_x(r.xlo));
      const long long ny = std::abs(cl.nearest_y(r.yhi) - cl.nearest_y(r.ylo));
      regions += std::max(1ll, nx) * std::max(1ll, ny);
    }
    printf("  IR-grid 30um: %7lld region evaluations over %lld IR-cells\n\n",
           regions, map.cell_count());
  }
}

}  // namespace

int run_bench(int argc, char** argv) {
  print_workload_summary();
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

int main(int argc, char** argv) {
  return ficon::bench::guarded_main("bench_micro_models",
                                    [&] { return run_bench(argc, argv); });
}
