// Batched numeric kernel for the Theorem 1 hot loop.
//
// The Theorem 1 integrand costs one exp() per Simpson sample, and libm's
// exp() does not vectorize without libmvec. normal_pdf_batch() evaluates
// the normal density over an array of (x, mu, 1/sigma) triples with its
// own exp (Cody–Waite reduction + degree-13 Taylor + exponent
// reconstruction), in 2-lane GCC/Clang vectors.
//
// Equivalence contract: the vector lanes and the scalar tail of an
// odd-length batch use the SAME exp algorithm (exp_lane() is one lane of
// it), so element i of a batch does not depend on the batch size.
// Relative error vs libm exp() is ~1 ulp; the probability-level bound
// against the scalar libm reference (congestion/approx.hpp) is asserted in
// prob_property_test.
#pragma once

#include <span>

namespace ficon {
namespace kernel {

/// Scalar lane of the kernel exp: identical operation sequence to one lane
/// of the vector path, used for batch tails.
/// Precondition: x is finite (not NaN/inf); out-of-range x is clamped to
/// [-708, 708] (exp(-708) ~ 3.3e-308 is still a normal double).
double exp_lane(double x) noexcept;

/// out[i] = scale * inv_sigmas[i] * std_normal_pdf((xs[i]-mus[i]) *
/// inv_sigmas[i]). NaN entries in inv_sigmas propagate to out — callers
/// use that to mark invalid samples through the batch. Equal sizes.
void normal_pdf_batch(std::span<const double> xs, std::span<const double> mus,
                      std::span<const double> inv_sigmas, double scale,
                      std::span<double> out);

}  // namespace kernel
}  // namespace ficon
