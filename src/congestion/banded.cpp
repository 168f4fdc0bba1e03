#include "congestion/banded.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstring>

#include "obs/trace.hpp"
#include "util/check.hpp"

namespace ficon {

namespace {

// Two doubles in one 16-byte vector: the SSE2/NEON baseline, the same
// GCC/Clang vector-extension idiom as numeric/kernel.cpp.
using vd2 = double __attribute__((vector_size(16)));

vd2 lanes(double a, double b) { return vd2{a, b}; }

vd2 load2(const double* p) {
  vd2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store2(double* p, vd2 v) { std::memcpy(p, &v, sizeof v); }

std::size_t index(int cx, int cy, int ncx) {
  return static_cast<std::size_t>(cy) * static_cast<std::size_t>(ncx) +
         static_cast<std::size_t>(cx);
}

int at(std::span<const int> v, int i) { return v[static_cast<std::size_t>(i)]; }

/// The four lanes' sums of terms lo..hi, from a walk_band_quad() prefix.
std::array<double, 4> span_sums(const std::vector<double>& prefix, int lo,
                                int hi) {
  const double* top = prefix.data() + 4 * static_cast<std::size_t>(hi + 1);
  const double* bottom = prefix.data() + 4 * static_cast<std::size_t>(lo);
  const vd2 a = load2(top) - load2(bottom);
  const vd2 b = load2(top + 2) - load2(bottom + 2);
  return {a[0], a[1], b[0], b[1]};
}

}  // namespace

void walk_band_quad(int len, std::span<const ExitBand, 4> bands,
                    std::span<double> prefix) {
  FICON_ASSERT(len >= 1 && len < kMaxBandedSide &&
                   prefix.size() >= 4 * (static_cast<std::size_t>(len) + 1),
               "walk_band_quad: prefix shorter than the bands");
  for (const ExitBand& band : bands) {
    FICON_ASSERT(band.q >= 0 && band.q < kMaxBandedSide && band.v >= 0 &&
                     band.v < kMaxBandedSide,
                 "walk_band_quad: band constants out of range");
  }
  vd2 term_lo = lanes(bands[0].seed, bands[1].seed);
  vd2 term_hi = lanes(bands[2].seed, bands[3].seed);
  const vd2 q_lo = lanes(bands[0].q, bands[1].q);
  const vd2 q_hi = lanes(bands[2].q, bands[3].q);
  const vd2 v_lo = lanes(bands[0].v, bands[1].v);
  const vd2 v_hi = lanes(bands[2].v, bands[3].v);
  vd2 running_lo{0.0, 0.0};
  vd2 running_hi{0.0, 0.0};
  double* row = prefix.data();
  store2(row, running_lo);
  store2(row + 2, running_hi);
  for (int i = 0; i + 1 < len; ++i) {
    running_lo += term_lo;
    running_hi += term_hi;
    row += 4;
    store2(row, running_lo);
    store2(row + 2, running_hi);
    // All operands are integers below 2^26, so both products are exact
    // and the one division rounds the exact ratio, in every lane exactly
    // where the scalar recurrence does.
    const double p = static_cast<double>(i + 1);
    const double u = static_cast<double>(len - 1 - i);
    term_lo *= ((q_lo + p) * u) / (p * (u + v_lo));
    term_hi *= ((q_hi + p) * u) / (p * (u + v_hi));
  }
  running_lo += term_lo;
  running_hi += term_hi;
  row += 4;
  store2(row, running_lo);
  store2(row + 2, running_hi);
}

template <typename Add>
void BandedNetScorer::walk_bands(int len, Add&& add) {
  const std::size_t n = bands_.size();
  prefix_.resize(4 * (static_cast<std::size_t>(len) + 1));
  for (std::size_t k = 0; k < n; k += 4) {
    // A short last group repeats its last band; the extra lanes are
    // discarded.
    const std::size_t count = std::min<std::size_t>(4, n - k);
    std::array<ExitBand, 4> group;
    for (std::size_t j = 0; j < group.size(); ++j) {
      group[j] = bands_[k + std::min(j, count - 1)];
    }
    walk_band_quad(len, group, prefix_);
    add(std::span<const int>(band_cell_.data() + k, count));
  }
}

void BandedNetScorer::fill(LogFactorialTable& table, const NetGridShape& shape,
                           std::span<const int> lx1, std::span<const int> lx2,
                           std::span<const int> ly1, std::span<const int> ly2,
                           std::vector<double>& probs) {
  const int g1 = shape.g1;
  const int g2 = shape.g2;
  FICON_ASSERT(g1 >= 2 && g2 >= 2, "banded scoring needs a 2-D lattice");
  FICON_REQUIRE(g1 < kMaxBandedSide && g2 < kMaxBandedSide,
                "banded scoring: fine lattice too large for exact "
                "recurrence products (side >= 2^26)");
  FICON_ASSERT(lx2.size() == lx1.size() && ly2.size() == ly1.size(),
               "banded scoring: span arrays differ in length");
  const int ncx = static_cast<int>(lx1.size());
  const int ncy = static_cast<int>(ly1.size());
  obs::count(obs::Counter::kIrRegionsBanded,
             static_cast<long long>(ncx) * ncy);
  probs.resize(static_cast<std::size_t>(ncx) * static_cast<std::size_t>(ncy));

  // Canonical frame: mirror the y-spans for type II nets.
  row_cy1_.resize(static_cast<std::size_t>(ncy));
  row_cy2_.resize(static_cast<std::size_t>(ncy));
  for (std::size_t cy = 0; cy < row_cy1_.size(); ++cy) {
    row_cy1_[cy] = shape.type2 ? g2 - 1 - ly2[cy] : ly1[cy];
    row_cy2_[cy] = shape.type2 ? g2 - 1 - ly1[cy] : ly2[cy];
  }

  const double log_total = table.log_choose(g1 + g2 - 2, g2 - 1);

  // --- Top-exit pass: one band of length g1 per covered IR row. It
  // writes every row: span sums where the row has a band, 0 elsewhere.
  bands_.clear();
  band_cell_.clear();
  for (int cy = 0; cy < ncy; ++cy) {
    const int top = at(row_cy2_, cy);
    if (top >= g2 - 1) {  // no cell above: no top exits
      std::fill_n(probs.data() + index(0, cy, ncx), ncx, 0.0);
      continue;
    }
    const int v = g2 - 2 - top;
    const double log_seed = table.log_choose(g1 - 1 + v, v) - log_total;
    bands_.push_back({std::exp(log_seed), top, v});
    band_cell_.push_back(cy);
  }
  walk_bands(g1, [&](std::span<const int> rows) {
    for (int cx = 0; cx < ncx; ++cx) {
      const std::array<double, 4> sums =
          span_sums(prefix_, at(lx1, cx), at(lx2, cx));
      for (std::size_t k = 0; k < rows.size(); ++k) {
        probs[index(cx, rows[k], ncx)] = sums[k];
      }
    }
  });

  // --- Right-exit pass: one band of length g2 per covered IR column.
  bands_.clear();
  band_cell_.clear();
  for (int cx = 0; cx < ncx; ++cx) {
    const int right = at(lx2, cx);
    if (right >= g1 - 1) continue;  // no cell to the right
    const int v = g1 - 2 - right;
    const double log_seed = table.log_choose(v + g2 - 1, g2 - 1) - log_total;
    bands_.push_back({std::exp(log_seed), right, v});
    band_cell_.push_back(cx);
  }
  walk_bands(g2, [&](std::span<const int> columns) {
    for (int cy = 0; cy < ncy; ++cy) {
      const std::array<double, 4> sums =
          span_sums(prefix_, at(row_cy1_, cy), at(row_cy2_, cy));
      for (std::size_t k = 0; k < columns.size(); ++k) {
        probs[index(columns[k], cy, ncx)] += sums[k];
      }
    }
  });

  // --- Pin override: only rows touching the source's bottom fine row or
  // the sink's top fine row can hold a pin cell.
  for (int cy = 0; cy < ncy; ++cy) {
    if (at(row_cy1_, cy) == 0) {
      for (int cx = 0; cx < ncx; ++cx) {
        if (at(lx1, cx) == 0) probs[index(cx, cy, ncx)] = 1.0;
      }
    }
    if (at(row_cy2_, cy) == g2 - 1) {
      for (int cx = 0; cx < ncx; ++cx) {
        if (at(lx2, cx) == g1 - 1) probs[index(cx, cy, ncx)] = 1.0;
      }
    }
  }
}

}  // namespace ficon
