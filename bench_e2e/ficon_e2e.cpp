// End-to-end benchmark of the ficon production path.
//
// One invocation runs one named workload through the public API: build the
// netlist, construct a Floorplanner (which runs the normalization walk),
// run the anneal, evaluate a seeded random-move candidate stream, and check
// the outputs. It prints every metric as `metric <name> <value> <unit>` and,
// as its last line, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same candidates are replayed one layer at a time (pack, decompose, cut
// lines, IR evaluation, top-fraction cost), timed from this file around
// calls into each module's public functions, and the metrics are the
// per-layer ones. Spans are kept in memory and written as JSONL at exit
// (--spans PATH). See README.md in this directory for the workloads, the
// metric map and the checks.
//
//   ficon_e2e --workload ami49-ir-1t --seed 1 --seconds 8 --trace 0
//
// Test-only flags: --size tiny (short schedule, for smoke tests) and
// --fault CHECK (perturb the value one check compares, to show it fires).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ficon.hpp"

namespace {

using namespace ficon;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  const char* circuit;  // MCNC name, or a scale tier token ("ami49x16")
  CongestionModelKind model;
  bool paper_mode;      // kTheorem1 with narrowed exact fallbacks
  bool multi_thread;    // min(4, nproc) threads instead of 1
  int moves_per_temperature;
  int temperatures;
  double cooling;
  int walk_length;      // stream candidates per random walk
  int oracle_samples;   // stream candidates re-scored by the oracle
  int replay_candidates;  // candidates replayed layer by layer (--trace 1)
  bool judge;           // judge the final placement at 10 um
  int anneals;          // distinct anneal seeds per --trace 0 run
};

// Anneal lengths are fixed (no stall stop), so every seed does the same
// number of moves and anneal_s compares like with like across seeds. The
// schedules are as long as a run allows: a shorter anneal ends further
// from convergence, and final_cost then varies more from seed to seed.
// The number of anneals is fixed too, so a run attempts the same checks
// however fast it goes. Both ami49 workloads anneal the same seeds, so
// their final_cost is the same number.
constexpr Workload kWorkloads[] = {
    {"ami49-ir-1t", "ami49", CongestionModelKind::kIrregularGrid, false,
     false, 60, 10, 0.85, 20, 3, 150, true, 3},
    {"ami49-ir-4t", "ami49", CongestionModelKind::kIrregularGrid, false,
     true, 60, 10, 0.85, 20, 3, 150, true, 3},
    {"ami33-paper", "ami33", CongestionModelKind::kIrregularGrid, true,
     false, 300, 12, 0.85, 500, 4, 300, true, 5},
    // No judge: a 10 um map of this chip is ~10^7 cells in each of the
    // judging model's 16 per-block partial grids, more than a GiB.
    {"ami49x16-area", "ami49x16", CongestionModelKind::kNone, false, false,
     2500, 12, 0.8, 2000, 16, 2000, false, 3},
};

constexpr double kGamma = 0.4;       // congestion weight (bench_common)
constexpr double kIrPitch = 30.0;    // IR fine pitch, um (paper, Table 2)
// Initial acceptance probability. Lower than the library's 0.9 default so
// the short schedules spend their moves improving, not random-walking.
constexpr double kInitialAccept = 0.5;
constexpr double kJudgePitch = 10.0; // the paper's judging model
// Set-ups per --trace 0 run, counting the one before each anneal; the rest
// run first, without annealing, so setup_s is a median of at least this
// many. The count is fixed rather than timed: an extra set-up alters the
// heap that the anneals and the stream then use, and so peak_rss_mib.
constexpr std::size_t kSetups = 6;
// Stream samples needed so the p99 has at least ten samples beyond it.
constexpr std::size_t kMinStreamSamples = 1000;
// Capacity reserved for the stream's latencies: far more candidates than
// any workload evaluates in a run (ami49x16-area, the cheapest, does ~7,000
// a second on a 4-vCPU VM).
constexpr std::size_t kMaxStreamSamples = std::size_t{1} << 22;
// eval_p99_us is taken per block of at least kMinStreamSamples consecutive
// candidates, and the median over the blocks is reported: a burst of
// interference from the shared host then moves one block's tail, not the
// metric. The rule is the same however many blocks a run's speed allows.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string fault;
  std::string spans_path;
};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int workload_threads(const Workload& w) {
  return w.multi_thread ? std::min(4, hardware_threads()) : 1;
}

IrregularGridParams ir_params(const Workload& w) {
  IrregularGridParams p;
  p.grid_w = kIrPitch;
  p.grid_h = kIrPitch;
  if (w.paper_mode) {
    // Same narrowing as bench::paper_mode_params: Theorem 1 really runs on
    // MCNC-scale ranges instead of falling back to exact Formula 3.
    p.strategy = IrEvalStrategy::kTheorem1;
    p.approx.narrow_range_threshold = 5;
    p.approx.small_region_threshold = 4;
  }
  return p;
}

FloorplanOptions floorplan_options(const Workload& w, const Args& args) {
  FloorplanOptions o;
  o.seed = args.seed;
  o.objective.model = w.model;
  o.objective.gamma = w.model == CongestionModelKind::kNone ? 0.0 : kGamma;
  o.objective.irregular = ir_params(w);
  const int temperatures = args.tiny ? 2 : w.temperatures;
  o.anneal.initial_accept = kInitialAccept;
  o.anneal.cooling = w.cooling;
  o.anneal.moves_per_temperature =
      args.tiny ? 10 : w.moves_per_temperature;
  // Exactly `temperatures` steps: T0 * c^k > T0 * c^(n - 1/2) for k < n.
  o.anneal.stop_temperature_ratio =
      std::pow(w.cooling, static_cast<double>(temperatures) - 0.5);
  o.anneal.max_stall_temperatures = temperatures + 1;
  return o;
}

std::unique_ptr<Netlist> build_netlist(const Workload& w, std::uint64_t seed) {
  const std::string circuit = w.circuit;
  if (circuit.find('x') != std::string::npos) {
    return std::make_unique<Netlist>(
        make_scale_netlist(parse_scale_tier(circuit), seed));
  }
  return std::make_unique<Netlist>(make_mcnc(circuit));
}

// ------------------------------------------------------------ measurements

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The p99 (nearest rank), or on a stream too short for ten samples beyond
/// it (--size tiny) the highest of p95/p90/p50 that has ten.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;
};

Tail tail_percentile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (const double p : {99.0, 95.0, 90.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank == 0 || rank > n) continue;
    const std::size_t beyond = n - rank;
    if (beyond >= 10) return Tail{p, v[rank - 1], beyond};
  }
  return Tail{100.0, n == 0 ? 0.0 : v.back(), 0};
}

/// Median of the p99s of consecutive blocks of the stream; `blocks` is 1
/// when the stream is one block.
struct BlockTail {
  Tail tail;  // value: the median of the blocks' values
  std::size_t blocks = 1;
};

BlockTail block_tail(const std::vector<double>& v) {
  const std::size_t blocks = v.size() / kMinStreamSamples;
  if (blocks <= 1) return BlockTail{tail_percentile(v), 1};
  std::vector<double> values;
  Tail out{99.0, 0.0, v.size()};
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(
                                       b * v.size() / blocks);
    const auto last = v.begin() + static_cast<std::ptrdiff_t>(
                                      (b + 1) * v.size() / blocks);
    const Tail block = tail_percentile(std::vector<double>(first, last));
    values.push_back(block.value);
    out.percentile = block.percentile;
    out.beyond = std::min(out.beyond, block.beyond);
  }
  out.value = median(values);
  return BlockTail{out, blocks};
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM not available in /proc/self/status");
}

double ratio(long long num, long long den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

// ------------------------------------------------------------------- spans

/// In-memory span log: one record per timed call, written at exit.
class SpanLog {
 public:
  struct Span {
    int id;
    int parent;     // -1 for roots
    long long request;  // candidate index, -1 outside the stream
    const char* name;
    long long start_ns;
    long long end_ns;
  };

  SpanLog() : origin_(Clock::now()) {}

  int begin(const char* name, int parent, long long request) {
    spans_.push_back(
        Span{static_cast<int>(spans_.size()), parent, request, name, now(), 0});
    return spans_.back().id;
  }
  /// Closes span `id`; returns its duration in microseconds.
  double end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now();
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
  }

  void write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write spans to " + path);
    for (const Span& s : spans_) {
      os << "{\"id\": " << s.id << ", \"parent\": " << s.parent
         << ", \"request\": " << s.request << ", \"name\": \"" << s.name
         << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
         << "}\n";
    }
  }

 private:
  long long now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------------ checks

/// Every check the run attempts. `tracked` marks a check that documents a
/// known defect of the program (it is counted in `failed` and error_rate
/// like any other, but does not by itself make the run incorrect).
class Checks {
 public:
  explicit Checks(std::string fault) : fault_(std::move(fault)) {}

  /// True when --fault names this check: the caller perturbs the value it
  /// compares so the check must fire.
  bool faulted(const char* name) const { return fault_ == name; }

  void record(const char* name, bool ok, const std::string& detail,
              bool tracked = false) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (!tracked) correct_ = false;
    std::printf("check-failed %s%s: %s\n", name, tracked ? " (tracked)" : "",
                detail.c_str());
  }

  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }
  bool correct() const { return correct_; }

 private:
  std::string fault_;
  long long attempted_ = 0;
  long long failed_ = 0;
  bool correct_ = true;
};

std::string format(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

/// Upper bound on the nets that can charge each IR-cell: a net charges
/// only cells inside its routing range snapped to the cut lines (plus the
/// neighbours a degenerate range splits onto), so count every net whose
/// widened window covers the cell.
std::vector<int> contributors(std::span<const TwoPinNet> nets,
                              const CutLines& cl, const Rect& chip) {
  const int nx = cl.nx();
  const int ny = cl.ny();
  std::vector<int> diff(static_cast<std::size_t>(nx + 1) *
                            static_cast<std::size_t>(ny + 1),
                        0);
  const auto at = [&](int x, int y) -> int& {
    return diff[static_cast<std::size_t>(y) * static_cast<std::size_t>(nx + 1) +
                static_cast<std::size_t>(x)];
  };
  for (const TwoPinNet& net : nets) {
    const Rect r = net.routing_range().intersection(chip);
    if (!r.valid()) continue;
    const int x1 = std::max(0, cl.nearest_x(r.xlo) - 1);
    const int x2 = std::min(nx, cl.nearest_x(r.xhi) + 1);
    const int y1 = std::max(0, cl.nearest_y(r.ylo) - 1);
    const int y2 = std::min(ny, cl.nearest_y(r.yhi) + 1);
    ++at(x1, y1);
    --at(x2, y1);
    --at(x1, y2);
    ++at(x2, y2);
  }
  std::vector<int> count(static_cast<std::size_t>(nx) *
                         static_cast<std::size_t>(ny));
  for (int y = 0; y < ny; ++y) {
    for (int x = 0; x < nx; ++x) {
      if (x > 0) at(x, y) += at(x - 1, y);
      if (y > 0) at(x, y) += at(x, y - 1);
      if (x > 0 && y > 0) at(x, y) -= at(x - 1, y - 1);
      count[static_cast<std::size_t>(y) * static_cast<std::size_t>(nx) +
            static_cast<std::size_t>(x)] = at(x, y);
    }
  }
  return count;
}

/// Congestion term of a stream candidate against the exact per-region
/// oracle (Formula 3), and its wirelength against mst_wirelength.
void check_candidate(const Floorplanner& fp, const PolishExpression& expr,
                     const FloorplanMetrics& m, Checks& checks) {
  const Netlist& netlist = fp.netlist();
  const Placement placement = fp.pack(expr).placement;
  double mst = mst_wirelength(netlist, placement);
  if (checks.faulted("wirelength")) mst += 1.0;
  checks.record("wirelength", m.wirelength == mst,
                format("evaluate %.17g vs mst_wirelength %.17g",
                       m.wirelength, mst));

  const CongestionModel* model = fp.congestion_model();
  if (model == nullptr) return;
  const auto& ir = static_cast<const IrregularGridModel&>(*model);
  IrregularGridParams exact_params = ir.params();
  exact_params.strategy = IrEvalStrategy::kExactPerRegion;
  const IrregularGridModel oracle(exact_params);
  const std::vector<TwoPinNet> nets = decompose_to_two_pin(netlist, placement);
  const IrregularCongestionMap exact = oracle.evaluate(nets, placement.chip);

  if (ir.params().strategy != IrEvalStrategy::kTheorem1) {
    // Banded exact must agree with the oracle to 1e-9 relative.
    const double ref = exact.top_fraction_cost(ir.params().top_fraction);
    double got = m.congestion;
    if (checks.faulted("oracle")) got *= 1.0 + 1e-6;
    const double rel = std::abs(got - ref) / std::max(std::abs(ref), 1e-300);
    checks.record("oracle", rel <= 1e-9,
                  format("congestion %.17g vs exact %.17g", got, ref));
    return;
  }
  // Theorem 1: every per-net probability within the paper's 0.05 of the
  // exact value (Figure 8), so each IR-cell's flow within 0.05 per net
  // that can charge it.
  const IrregularCongestionMap approx = ir.evaluate(nets, placement.chip);
  const std::vector<int> k = contributors(nets, exact.lines(), placement.chip);
  double worst = 0.0;  // largest |deviation| / allowed
  double worst_dev = 0.0;
  for (int iy = 0; iy < exact.ny(); ++iy) {
    for (int ix = 0; ix < exact.nx(); ++ix) {
      double a = approx.flow(ix, iy);
      if (checks.faulted("oracle") && ix == 0 && iy == 0) a += 1e3;
      const double dev = std::abs(a - exact.flow(ix, iy));
      const double allowed =
          0.05 * k[static_cast<std::size_t>(iy) *
                       static_cast<std::size_t>(exact.nx()) +
                   static_cast<std::size_t>(ix)] +
          1e-12;
      worst = std::max(worst, dev / allowed);
      worst_dev = std::max(worst_dev, dev);
    }
  }
  checks.record("oracle", worst <= 1.0,
                format("worst IR-cell deviation %.6g (%.3g of the bound)",
                       worst_dev, worst));
}

/// Path-mass conservation of the judging model on the final placement:
/// the cells of the 10 um map sum to sum over nets of (g1 + g2 - 1).
struct JudgeResult {
  double us = 0.0;
  long long cells = 0;
};

JudgeResult check_judge(const Netlist& netlist, const Placement& placement,
                        SpanLog& spans, Checks& checks) {
  const std::vector<TwoPinNet> nets = decompose_to_two_pin(netlist, placement);
  const FixedGridModel judge = make_judging_model(kJudgePitch);
  const int span = spans.begin("congestion.judge", -1, -1);
  const CongestionMap map = judge.evaluate(nets, placement.chip);
  JudgeResult out;
  out.us = spans.end(span);
  out.cells = map.cell_count();

  double mass = 0.0;
  for (const double v : map.values()) mass += v;
  if (checks.faulted("judge_mass")) mass -= 1.0;  // a mass-short field
  double expected = 0.0;
  for (const TwoPinNet& net : nets) {
    const SpannedNet s = span_net(map.grid(), net);
    expected += s.shape.g1 + s.shape.g2 - 1;
  }
  const double rel = std::abs(mass - expected) / std::max(expected, 1.0);
  std::printf("judge-mass measured %.17g expected %.17g relative %.3g\n",
              mass, expected, (mass - expected) / std::max(expected, 1.0));
  // Tracked: the recurrence-seed underflow (ROADMAP item 1) loses mass on
  // long nets at 10 um; the check reports it until that is fixed.
  checks.record("judge_mass", rel <= 1e-9,
                format("path mass %.17g vs expected %.17g", mass, expected),
                /*tracked=*/true);
  return out;
}

// -------------------------------------------------------------------- run

struct Instance {
  std::unique_ptr<Netlist> netlist;
  std::unique_ptr<Floorplanner> fp;
};

/// Set-up times in seconds, one entry per set-up.
struct SetupTimes {
  std::vector<double> total, build, normalize;
};

/// Build the netlist and construct the Floorplanner (whose constructor
/// runs the normalization walk), timing both. `anneal_seed` seeds the
/// Floorplanner; the netlist always comes from --seed.
Instance set_up(const Workload& w, const Args& args,
                std::uint64_t anneal_seed, SpanLog& spans,
                SetupTimes& times) {
  const int root = spans.begin("core.setup", -1, -1);
  const int b = spans.begin("circuit.build", root, -1);
  auto netlist = build_netlist(w, args.seed);
  times.build.push_back(spans.end(b) * 1e-6);
  const int n = spans.begin("core.normalize", root, -1);
  FloorplanOptions options = floorplan_options(w, args);
  options.seed = anneal_seed;
  auto fp = std::make_unique<Floorplanner>(*netlist, options);
  times.normalize.push_back(spans.end(n) * 1e-6);
  times.total.push_back(spans.end(root) * 1e-6);
  return Instance{std::move(netlist), std::move(fp)};
}

/// The seeded candidate stream: back-to-back random walks of Wong-Liu
/// moves, `walk_length` candidates each, every walk starting from its own
/// random floorplan (a burn-in of 10 moves per module from the initial
/// expression). Consecutive candidates differ by one move, as in the
/// anneal; several walks keep the stream's statistics from hinging on the
/// region of the space one walk happens to explore.
class CandidateStream {
 public:
  CandidateStream(std::size_t modules, std::uint64_t seed, int walk_length)
      : modules_(modules),
        seed_(seed),
        walk_length_(walk_length),
        rng_(0),
        expr_(PolishExpression::initial(static_cast<int>(modules))) {}

  const PolishExpression& next() {
    if (step_ % walk_length_ == 0) start_walk(step_ / walk_length_);
    ++step_;
    expr_.random_move(rng_);
    return expr_;
  }

 private:
  void start_walk(long long walk) {
    rng_ = Rng(SplitMix64(seed_ ^ (0x5EEDCA4D1DA7E5ull +
                                   static_cast<std::uint64_t>(walk) *
                                       0x9E3779B97F4A7C15ull))
                   .next());
    expr_ = PolishExpression::initial(static_cast<int>(modules_));
    for (std::size_t i = 0; i < 10 * modules_; ++i) expr_.random_move(rng_);
  }

  std::size_t modules_;
  std::uint64_t seed_;
  long long walk_length_;
  long long step_ = 0;
  Rng rng_;
  PolishExpression expr_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("metric error_rate %.17g share (%lld failed of %lld checks)\n",
              ratio(checks.failed(), checks.attempted()), checks.failed(),
              checks.attempted());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              checks.correct() ? "true" : "false", checks.attempted(),
              checks.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Floorplanner::run(), timed.
FloorplanSolution timed_run(const Floorplanner& fp, SpanLog& spans,
                            double& seconds) {
  const int span = spans.begin("core.anneal", -1, -1);
  FloorplanSolution sol = fp.run();
  seconds = spans.end(span) * 1e-6;
  return sol;
}

/// The final solution is legal and re-evaluates to its reported cost.
void check_final(const Floorplanner& fp, const FloorplanSolution& sol,
                 Checks& checks) {
  Placement placement = sol.placement;
  if (checks.faulted("final_legal") && placement.module_rects.size() >= 2) {
    placement.module_rects[1] = placement.module_rects[0];
  }
  checks.record("final_legal", placement_is_legal(placement),
                "final placement overlaps or leaves the chip");
  double again = fp.evaluate(sol.expression).cost;
  if (checks.faulted("final_reproduce")) again = std::nextafter(again, 1e300);
  checks.record("final_reproduce", again == sol.metrics.cost,
                format("re-evaluated cost %.17g vs %.17g", again,
                       sol.metrics.cost));
}

std::vector<Metric> run_untraced(const Workload& w, const Args& args,
                                 Checks& checks, SpanLog& spans) {
  SetupTimes setup;
  std::vector<double> anneal_s;
  Instance inst;
  FloorplanSolution sol;
  std::vector<double> final_costs;
  // Fresh instances, each set up and annealed once: first --seed (its
  // solution is the one checked below), then seeds derived from it, then
  // --seed again, which must reproduce its final cost bit for bit. Every
  // anneal is timed, so anneal_s and final_cost are medians over several
  // paths through the search rather than one seed's path. The last
  // instance serves the stream and the checks below (the objective's
  // normalization depends on the seed).
  const std::size_t seeds = args.tiny ? 1 : static_cast<std::size_t>(
                                                w.anneals);
  for (std::size_t k = seeds + 1; !args.tiny && k < kSetups; ++k) {
    (void)set_up(w, args, args.seed, spans, setup);
  }
  for (std::size_t k = 0; k <= seeds; ++k) {
    const std::uint64_t seed =
        k == 0 || k == seeds
            ? args.seed
            : SplitMix64(args.seed ^ (0xA11EA1ull + k * 0x9E3779B97F4A7C15ull))
                  .next();
    inst = Instance{};  // free the previous instance first
    inst = set_up(w, args, seed, spans, setup);
    double seconds = 0.0;
    FloorplanSolution again = timed_run(*inst.fp, spans, seconds);
    anneal_s.push_back(seconds);
    if (k < seeds) final_costs.push_back(again.metrics.cost);
    if (k == 0) sol = std::move(again);
    if (k < seeds) continue;
    double cost = again.metrics.cost;
    if (checks.faulted("anneal_repeat")) cost = std::nextafter(cost, 1e300);
    checks.record("anneal_repeat", cost == sol.metrics.cost,
                  format("repeated anneal's final cost %.17g vs %.17g", cost,
                         sol.metrics.cost));
  }
  const Floorplanner& fp = *inst.fp;
  const Netlist& netlist = *inst.netlist;
  check_final(fp, sol, checks);

  // Candidate stream, timed per evaluate() call, for --seconds and at
  // least kMinStreamSamples candidates.
  const std::size_t min_samples = args.tiny ? 20 : kMinStreamSamples;
  const int oracle_samples = args.tiny ? 1 : w.oracle_samples;
  const std::size_t stride =
      std::max<std::size_t>(1, min_samples / static_cast<std::size_t>(
                                                 oracle_samples));
  CandidateStream stream(netlist.module_count(), args.seed,
                         args.tiny ? 10 : w.walk_length);
  // Reserved up front and touched only as it fills, so the resident size
  // grows by 8 bytes a sample instead of jumping when the vector regrows:
  // the sample count follows the machine's speed, and peak_rss_mib must not.
  std::vector<double> latency_us;
  latency_us.reserve(kMaxStreamSamples);
  std::vector<std::pair<PolishExpression, FloorplanMetrics>> sampled;
  const auto start = Clock::now();
  while (latency_us.size() < min_samples ||
         seconds_between(start, Clock::now()) < args.seconds) {
    const PolishExpression& expr = stream.next();
    const auto t0 = Clock::now();
    const FloorplanMetrics m = fp.evaluate(expr);
    latency_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    if (latency_us.size() % stride == 1 &&
        sampled.size() < static_cast<std::size_t>(oracle_samples)) {
      sampled.emplace_back(expr, m);
    }
  }
  // Memory of the production path only: the checks below allocate the
  // oracle's and the 10 um judge's grids, whose size follows the final
  // chip and would swamp the figure.
  const double rss = peak_rss_mib();
  for (const auto& [expr, m] : sampled) check_candidate(fp, expr, m, checks);
  if (w.judge) check_judge(netlist, sol.placement, spans, checks);

  const BlockTail tail = block_tail(latency_us);
  std::printf("stream %zu candidates; eval_p99_us is the median p%g of %zu "
              "block(s), at least %zu samples beyond it in each\n",
              latency_us.size(), tail.tail.percentile, tail.blocks,
              tail.tail.beyond);
  return {
      {"anneal_s", median(anneal_s), "s"},
      {"eval_p50_us", median(latency_us), "us"},
      {"eval_p99_us", tail.tail.value, "us"},
      {"setup_s", median(setup.total), "s"},
      {"peak_rss_mib", rss, "MiB"},
      {"final_cost", median(final_costs), "1"},
  };
}

std::vector<Metric> run_traced(const Workload& w, const Args& args,
                               Checks& checks, SpanLog& spans) {
  const int threads = workload_threads(w);
  SetupTimes setup;
  const Instance inst = set_up(w, args, args.seed, spans, setup);
  const Floorplanner& fp = *inst.fp;
  const Netlist& netlist = *inst.netlist;
  const FloorplanOptions options = fp.options();

  // Untraced, then traced anneal: the ratio is the tracing overhead, and
  // the traced run's phase timers and counters split anneal_s.
  double anneal_s = 0.0;
  const FloorplanSolution sol = timed_run(fp, spans, anneal_s);
  check_final(fp, sol, checks);
  const JudgeResult judge =
      w.judge ? check_judge(netlist, sol.placement, spans, checks)
              : JudgeResult{};

  obs::reset();
  obs::set_trace_enabled(true);
  const int anneal_span = spans.begin("core.anneal.traced", -1, -1);
  const FloorplanSolution traced = fp.run();
  const double traced_s = spans.end(anneal_span) * 1e-6;
  obs::set_trace_enabled(false);
  const obs::TraceReport anneal_report = obs::capture();
  double traced_cost = traced.metrics.cost;
  if (checks.faulted("trace_identity")) {
    traced_cost = std::nextafter(traced_cost, 1e300);
  }
  checks.record("trace_identity", traced_cost == sol.metrics.cost,
                format("traced final cost %.17g vs %.17g", traced_cost,
                       sol.metrics.cost));

  // Same final cost at another thread count (1 <-> min(4, nproc)).
  const int other = threads > 1 ? 1 : std::min(4, hardware_threads());
  if (other != threads) {
    ThreadPool::set_global_threads(other);
    const Floorplanner fp_other(netlist, floorplan_options(w, args));
    double other_cost = fp_other.run().metrics.cost;
    ThreadPool::set_global_threads(threads);
    if (checks.faulted("cross_thread")) {
      other_cost = std::nextafter(other_cost, 1e300);
    }
    checks.record("cross_thread", other_cost == sol.metrics.cost,
                  format("final cost %.17g at the other thread count vs %.17g",
                         other_cost, sol.metrics.cost));
  }

  // Layer-by-layer replay of the untraced run's candidate stream through
  // the benchmark's own packer, decomposer and model, against
  // Floorplanner::evaluate on the same candidates.
  const bool congestion = w.model != CongestionModelKind::kNone;
  const IrregularGridModel model(options.objective.irregular);
  const IrregularGridParams& ir = options.objective.irregular;
  SlicingPacker packer(netlist);
  TwoPinDecomposer decomposer;
  CandidateStream stream(netlist.module_count(), args.seed,
                         args.tiny ? 10 : w.walk_length);
  const int replay = args.tiny ? 3 : w.replay_candidates;
  std::vector<double> core_us, pack_us, decompose_us, cutlines_us, ir_us,
      top_us, ir_cells, two_pin;
  std::vector<std::vector<TwoPinNet>> kept_nets;
  std::vector<Rect> kept_chips;
  obs::reset();
  for (int c = 0; c < replay; ++c) {
    const PolishExpression& expr = stream.next();
    obs::set_trace_enabled(true);
    const int root = spans.begin("core.evaluate", -1, c);
    int s = spans.begin("floorplan.pack", root, c);
    const SlicingResult& packed = packer.pack_cached_ref(expr);
    pack_us.push_back(spans.end(s));
    s = spans.begin("route.decompose", root, c);
    const std::span<const TwoPinNet> nets =
        decomposer.decompose(netlist, packed.placement);
    decompose_us.push_back(spans.end(s));
    const Rect chip = packed.placement.chip;
    double cost = 0.0;
    if (congestion) {
      // Timed on its own for the geometry share; evaluate() below builds
      // the same cut lines again internally.
      s = spans.begin("congestion.cutlines", root, c);
      const CutLines lines =
          build_cutlines(nets, chip, ir.merge_factor * ir.grid_w,
                         ir.merge_factor * ir.grid_h);
      cutlines_us.push_back(spans.end(s));
      s = spans.begin("congestion.ir_evaluate", root, c);
      const IrregularCongestionMap map = model.evaluate(nets, chip);
      ir_us.push_back(spans.end(s));
      s = spans.begin("congestion.top_fraction", root, c);
      cost = map.top_fraction_cost(ir.top_fraction);
      top_us.push_back(spans.end(s));
      ir_cells.push_back(static_cast<double>(map.cell_count()));
      if (threads > 1) {
        kept_nets.emplace_back(nets.begin(), nets.end());
        kept_chips.push_back(chip);
      }
    }
    core_us.push_back(spans.end(root));
    obs::set_trace_enabled(false);
    two_pin.push_back(static_cast<double>(nets.size()));
    const double wire = total_length(nets);

    const FloorplanMetrics ref = fp.evaluate(expr);
    if (checks.faulted("replay_fidelity")) cost = std::nextafter(cost, 1e300);
    checks.record("replay_fidelity",
                  cost == ref.congestion && wire == ref.wirelength,
                  format("replayed congestion %.17g vs evaluate %.17g", cost,
                         ref.congestion));
  }
  const obs::TraceReport rep = obs::capture();
  using obs::Counter;
  const auto per_candidate = [&](Counter c) {
    return static_cast<double>(rep.counter(c)) / replay;
  };

  // ir_evaluate at 1 thread vs the workload's threads, same candidates.
  double speedup = 1.0;
  if (!kept_nets.empty()) {
    const auto time_all = [&] {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kept_nets.size(); ++i) {
        (void)model.evaluate(kept_nets[i], kept_chips[i]);
      }
      return seconds_between(t0, Clock::now());
    };
    const double at_threads = time_all();
    ThreadPool::set_global_threads(1);
    const double at_one = time_all();
    ThreadPool::set_global_threads(threads);
    speedup = at_one / at_threads;
  }

  const double core = mean(core_us);
  const double children = mean(pack_us) + mean(decompose_us) +
                          mean(cutlines_us) + mean(ir_us) + mean(top_us);
  const double pack_s = anneal_report.phase_seconds(obs::Phase::kPack);
  const double decompose_s =
      anneal_report.phase_seconds(obs::Phase::kDecompose);
  const double congestion_s =
      anneal_report.phase_seconds(obs::Phase::kCongestion);
  const long long proposed =
      anneal_report.counter(Counter::kAnnealMovesProposed);
  const long long theorem1 = rep.counter(Counter::kIrRegionsTheorem1);
  const long long memo_hits = rep.counter(Counter::kScoreMemoHits);
  const long long pool_blocks = rep.counter(Counter::kPoolBlocks);
  const long long inline_blocks = rep.counter(Counter::kPoolInlineBlocks);
  const long long pack_incremental = rep.counter(Counter::kPackCacheIncremental);
  const long long reused = rep.counter(Counter::kDecomposeNetsReused);
  std::printf("replay %d candidates; core.evaluate %.1f us, children %.1f us\n",
              replay, core, children);
  return {
      {"congestion.score_us", mean(ir_us) - mean(cutlines_us), "us"},
      {"congestion.regions_banded", per_candidate(Counter::kIrRegionsBanded),
       "count"},
      {"congestion.cutlines_us", mean(cutlines_us), "us"},
      {"congestion.top_fraction_us", mean(top_us), "us"},
      {"congestion.ir_cells", mean(ir_cells), "count"},
      {"congestion.regions_theorem1", per_candidate(Counter::kIrRegionsTheorem1),
       "count"},
      {"congestion.regions_exact", per_candidate(Counter::kIrRegionsExact),
       "count"},
      {"congestion.theorem1_fallback_share",
       ratio(rep.counter(Counter::kIrTheorem1ExactFallbacks), theorem1),
       "share"},
      {"congestion.memo_hit_share",
       ratio(memo_hits, memo_hits + rep.counter(Counter::kScoreMemoMisses)),
       "share"},
      {"congestion.judge_us", judge.us, "us"},
      {"congestion.judge_cells", static_cast<double>(judge.cells), "count"},
      {"congestion.ir_evaluate_speedup", speedup, "x"},
      {"floorplan.pack_us", mean(pack_us), "us"},
      {"floorplan.incremental_share",
       ratio(pack_incremental,
             pack_incremental + rep.counter(Counter::kPackCacheFullRebuilds)),
       "share"},
      {"floorplan.nodes_recomputed_share",
       ratio(rep.counter(Counter::kPackCacheNodesRecomputed),
             rep.counter(Counter::kPackCacheNodesTotal)),
       "share"},
      {"route.decompose_us", mean(decompose_us), "us"},
      {"route.two_pin_nets", mean(two_pin), "count"},
      {"route.nets_reused_share",
       ratio(reused, reused + rep.counter(Counter::kDecomposeNetsRecomputed)),
       "share"},
      {"pool.tasks", per_candidate(Counter::kPoolTasks), "count"},
      {"pool.inline_share",
       ratio(inline_blocks, inline_blocks + pool_blocks), "share"},
      {"pool.queue_wait_ns",
       static_cast<double>(rep.counter(Counter::kPoolQueueWaitNs)) /
           std::max(1.0, static_cast<double>(rep.counter(Counter::kPoolTasks))),
       "ns"},
      {"anneal.moves", static_cast<double>(proposed), "count"},
      {"anneal.accept_share",
       ratio(anneal_report.counter(Counter::kAnnealMovesAccepted), proposed),
       "share"},
      {"anneal.temperatures",
       static_cast<double>(
           anneal_report.counter(Counter::kAnnealTemperatures)),
       "count"},
      {"anneal.pack_s", pack_s, "s"},
      {"anneal.decompose_s", decompose_s, "s"},
      {"anneal.congestion_s", congestion_s, "s"},
      {"anneal.other_s", traced_s - pack_s - decompose_s - congestion_s, "s"},
      {"core.evaluate_us", core, "us"},
      {"core.self_share", core > 0.0 ? (core - children) / core : 0.0,
       "share"},
      {"core.normalize_s", median(setup.normalize), "s"},
      {"circuit.build_s", median(setup.build), "s"},
      {"trace.overhead_share", traced_s / anneal_s - 1.0, "share"},
  };
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") {
        throw std::invalid_argument("--size takes full or tiny");
      }
      a.tiny = value == "tiny";
    } else if (flag == "--fault") {
      const char* const known[] = {
          "oracle",          "wirelength",     "final_legal",
          "final_reproduce", "judge_mass",     "replay_fidelity",
          "trace_identity",  "cross_thread",   "anneal_repeat"};
      if (std::find(std::begin(known), std::end(known), value) ==
          std::end(known)) {
        throw std::invalid_argument("unknown --fault " + value);
      }
      a.fault = value;
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds >= 0.0)) throw std::invalid_argument("bad --seconds");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload& w = find_workload(args.workload);
    obs::set_trace_enabled(false);
    ThreadPool::set_global_threads(workload_threads(w));
    std::printf("workload %s seed %llu threads %d trace %d\n", w.name,
                static_cast<unsigned long long>(args.seed),
                workload_threads(w), args.trace ? 1 : 0);
    Checks checks(args.fault);
    SpanLog spans;
    const std::vector<Metric> metrics =
        args.trace ? run_traced(w, args, checks, spans)
                   : run_untraced(w, args, checks, spans);
    if (!args.spans_path.empty()) spans.write(args.spans_path);
    print_result(checks, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ficon_e2e: %s\n", e.what());
    return 2;
  }
}
