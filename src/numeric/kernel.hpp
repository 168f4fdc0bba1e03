// Batched numeric kernel for the Theorem 1 hot loop (ROADMAP item 3).
//
// The Theorem 1 integrand costs one exp() per Simpson sample, and libm's
// exp() does not vectorize without libmvec. This kernel provides the
// array-oriented primitives the batched probability API is built on:
//
//   * exp_batch()         — e^x over a contiguous array, evaluated with
//                           portable GCC/Clang vector extensions when the
//                           library is compiled with FICON_SIMD=ON,
//   * normal_pdf_batch()  — the normal density over an array of
//                           (x, mu, 1/sigma) triples,
//   * normal_cdf_batch()  — batched CDF counterpart (erfc-based; kept
//                           scalar inside, provided so callers can stay on
//                           the array API throughout).
//
// Equivalence contract: the vector path and the scalar tail use the SAME
// exp algorithm (Cody–Waite reduction + degree-13 Taylor + exponent
// reconstruction), so element i of a batch does not depend on the batch
// size or on whether vector extensions were compiled in. Relative error
// vs libm exp() is ~1 ulp; the probability-level equivalence bound against
// the scalar reference path is asserted in prob_property_test.
//
// Dispatch: SimdMode::kAuto resolves through the FICON_SIMD runtime knob
// (default on when compiled in); kScalar/kSimd force one path. The scalar
// reference path keeps calling libm via numeric/normal.hpp and is NOT
// affected by any of this.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace ficon {

/// Which implementation a probability evaluator uses for Theorem 1 math.
enum class SimdMode {
  /// Follow the FICON_SIMD runtime knob (default: on when the library was
  /// compiled with vector extensions, off otherwise).
  kAuto,
  /// Force the scalar libm reference path (bit-identical to the historical
  /// per-pair evaluation).
  kScalar,
  /// Force the batched kernel path (vectorized when compiled in; the
  /// lane-exact scalar fallback otherwise — results are identical).
  kSimd,
};

/// True when the library was compiled with FICON_SIMD=ON and the compiler
/// supports the vector extensions (GCC/Clang).
bool kernel_simd_compiled();

/// Value of the FICON_SIMD environment knob: "1"/"on"/"true" enable,
/// "0"/"off"/"false" disable, letters in any case. Anything else throws
/// std::invalid_argument naming the knob.
bool parse_simd_knob(std::string_view value);

/// Resolved default for SimdMode::kAuto: the FICON_SIMD environment knob
/// (default on) parsed by parse_simd_knob(), read once, and forced off
/// when kernel_simd_compiled() is false. Throws on a malformed value.
bool kernel_simd_default();

/// Resolve a mode to "use the batched kernel path?".
bool kernel_simd_active(SimdMode mode);

namespace kernel {

/// Scalar lane of the kernel exp: identical operation sequence to one lane
/// of the vector path, used for batch tails and non-SIMD builds.
/// Precondition: x is finite (not NaN/inf); out-of-range x is clamped to
/// [-708, 708] (exp(-708) ~ 3.3e-308 is still a normal double).
double exp_lane(double x) noexcept;

/// out[i] = e^xs[i]. Vectorized in chunks of 4 lanes when compiled with
/// FICON_SIMD=ON; the tail (and non-SIMD builds) uses exp_lane(), so
/// results never depend on the batch size. Spans must have equal size.
void exp_batch(std::span<const double> xs, std::span<double> out);

/// out[i] = scale * inv_sigmas[i] * std_normal_pdf((xs[i]-mus[i]) *
/// inv_sigmas[i]). NaN entries in inv_sigmas propagate to out — callers
/// use that to mark invalid samples through the batch. Equal sizes.
void normal_pdf_batch(std::span<const double> xs, std::span<const double> mus,
                      std::span<const double> inv_sigmas, double scale,
                      std::span<double> out);

/// out[i] = Phi((xs[i]-mu) * inv_sigma), via erfc (numerically stable in
/// both tails). erfc has no portable vector form, so this loop is scalar
/// inside; it exists so CDF callers can stay on the array API.
void normal_cdf_batch(std::span<const double> xs, double mu, double inv_sigma,
                      std::span<double> out);

}  // namespace kernel
}  // namespace ficon
