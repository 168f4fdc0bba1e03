// Parallel scaling of the evaluation hot paths (util/thread_pool.hpp).
//
// Three workloads on the full ami49 harness (the largest MCNC circuit),
// each measured at 1/2/4/8 threads with speedup relative to 1 thread:
//   * IrregularGridModel::evaluate  — the paper's model (kBandedExact),
//   * FixedGridModel::evaluate      — the 10 um judging referee,
//   * run_seed_sweep                — independent annealing runs fanned
//                                     out one-per-thread.
// Because every parallel reduction is blocked by problem size and merged
// in block order, the costs printed in the last column must be identical
// on every row — the bench asserts it (determinism is also covered by
// tests/determinism_test.cpp).
//
// Knobs: FICON_PAR_CIRCUIT (default ami49), FICON_PAR_REPEATS (default 5),
// FICON_SEEDS / FICON_SCALE for the sweep workload. Speedups depend on the
// machine; on a single hardware thread every row degenerates to ~1.0x.
#include <functional>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "ficon.hpp"

using namespace ficon;

namespace {

// Warmed-up variant: page in partial grids, fill log-factorial caches.
double timed_ms(const std::function<void()>& fn, int repeats) {
  return bench::timed_ms(fn, repeats, /*warmup=*/true);
}

}  // namespace

int run_bench() {
  const ExperimentConfig config = experiment_config_from_env();
  const std::string circuit = env_string("FICON_PAR_CIRCUIT", "ami49");
  const int repeats = std::max(1, env_int("FICON_PAR_REPEATS", 5));
  const std::vector<int> thread_counts = {1, 2, 4, 8};

  std::cout << "Parallel scaling — " << circuit
            << " full-harness evaluation (hardware threads: "
            << std::thread::hardware_concurrency() << ")\n";
  print_scale_banner(config);

  // One deterministic floorplan provides the shared evaluation workload.
  const Netlist netlist = make_mcnc(circuit);
  FloorplanOptions base = bench::tuned_options(config);
  const FloorplanSolution sol = Floorplanner(netlist, base).run();
  const auto nets = decompose_to_two_pin(netlist, sol.placement);
  const Rect chip = sol.placement.chip;

  const IrregularGridModel ir(bench::paper_ir_params(circuit));
  const FixedGridModel judge = make_judging_model(config.judging_pitch);
  const int sweep_seeds = std::max(2, config.seeds);

  TextTable table({"threads", "IR eval (ms)", "speedup", "judge eval (ms)",
                   "speedup", "sweep (s)", "speedup", "IR cost"});
  double ir_base_ms = 0.0, judge_base_ms = 0.0, sweep_base_s = 0.0;
  double reference_cost = 0.0;
  bool deterministic = true;

  for (const int threads : thread_counts) {
    ThreadPool::set_global_threads(threads);

    const double ir_ms = timed_ms([&] { ir.evaluate(nets, chip); }, repeats);
    const double judge_ms =
        timed_ms([&] { judge.evaluate(nets, chip); }, repeats);
    Stopwatch sweep_sw;
    const SeedSweep sweep = run_seed_sweep(netlist, base, sweep_seeds, judge);
    const double sweep_s = sweep_sw.seconds();
    const double cost =
        ir.evaluate(nets, chip).top_fraction_cost(ir.params().top_fraction);

    if (threads == thread_counts.front()) {
      ir_base_ms = ir_ms;
      judge_base_ms = judge_ms;
      sweep_base_s = sweep_s;
      reference_cost = cost;
    }
    if (cost != reference_cost) deterministic = false;
    (void)sweep;  // timed for wall clock; results verified in tests

    table.add_row({std::to_string(threads), fmt_fixed(ir_ms, 2),
                   fmt_fixed(ir_base_ms / ir_ms, 2), fmt_fixed(judge_ms, 2),
                   fmt_fixed(judge_base_ms / judge_ms, 2),
                   fmt_fixed(sweep_s, 2), fmt_fixed(sweep_base_s / sweep_s, 2),
                   fmt_general(cost, 12)});
  }
  ThreadPool::set_global_threads(ThreadPool::env_threads());

  table.print(std::cout);
  std::cout << (deterministic
                    ? "# determinism: IR cost identical on every row\n"
                    : "# DETERMINISM VIOLATION: IR cost differs across "
                      "thread counts\n");
  return deterministic ? 0 : 1;
}

int main() { return ficon::bench::guarded_main("bench_parallel_scaling", run_bench); }
