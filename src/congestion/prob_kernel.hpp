// Batched probability kernel: the Theorem 1 engine. It scores one net
// against MANY regions per call over flat arrays:
//
//   region_probability_batch()  — the paper's full per-region policy
//                                 (pin rule, structural certainty, exact
//                                 fallbacks, Theorem 1) for a batch of
//                                 rects; what IrregularGridModel's
//                                 kTheorem1 strategy runs per net,
//   region_probability_exact_batch() — the kExactPerRegion mirror.
//
// Theorem 1 itself runs every Simpson sample of a region through the
// batched normal-pdf kernel (numeric/kernel.hpp). Which samples are invalid,
// and hence which regions fall back to exact Formula 3, is decided with
// the same IEEE predicates as the scalar libm reference
// (congestion/approx.hpp) and is bit-identical to it; approximated values
// agree with it to the bound asserted in prob_property_test.
//
// A ProbKernel owns per-call scratch, so it is cheap to keep per thread
// (as IrregularGridModel's scorer does) and safe to use from one thread
// at a time, like the rest of the scoring stack.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "congestion/approx.hpp"
#include "congestion/path_prob.hpp"
#include "geom/rect.hpp"

namespace ficon {

class ProbKernel {
 public:
  /// `exact` is copied (it is a cheap handle onto a shared log-factorial
  /// table; the table must outlive the kernel). Throws std::invalid_argument
  /// on invalid options (ApproxOptions::validate()).
  explicit ProbKernel(const PathProbability& exact, ApproxOptions options = {})
      : exact_(exact), options_(options) {
    options_.validate();
  }

  /// The paper's full per-region policy for a batch of regions of one net:
  /// out[i] = crossing probability of regions[i] (raw, possibly
  /// out-of-range rects are clamped to the routing range first).
  /// Requires regions.size() == out.size().
  void region_probability_batch(const NetGridShape& s,
                                std::span<const GridRect> regions,
                                std::span<double> out);

  /// The kExactPerRegion mirror: out[i] = 1 for pin-covering regions,
  /// exact Formula 3 otherwise.
  void region_probability_exact_batch(const NetGridShape& s,
                                      std::span<const GridRect> regions,
                                      std::span<double> out);

  const ApproxOptions& options() const { return options_; }

  /// Replaces the options, validated as by the constructor; the scratch
  /// buffers are kept.
  void set_options(const ApproxOptions& options) {
    options.validate();
    options_ = options;
  }
  const PathProbability& exact() const { return exact_; }

 private:
  /// The policy for one region.
  double region_probability_one(const NetGridShape& s, const GridRect& region);

  /// Theorem 1 for one canonical-frame region: both exit-edge integrals
  /// are planned up front and all of the region's Simpson samples flow
  /// through one setup/sqrt/pdf pipeline; nullopt on any invalid sample.
  std::optional<double> theorem1_batched(int g1, int g2,
                                         const GridRect& region);

  PathProbability exact_;
  ApproxOptions options_;
  // Scratch reused across calls (one region's samples at a time).
  std::vector<double> xs_, mus_, inv_sigmas_, terms_;
};

}  // namespace ficon
