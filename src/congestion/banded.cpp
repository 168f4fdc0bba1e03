#include "congestion/banded.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "obs/trace.hpp"
#include "util/check.hpp"

namespace ficon {

namespace {

// Two doubles in one 16-byte vector: the SSE2/NEON baseline, the same
// GCC/Clang vector-extension idiom as numeric/kernel.cpp.
using vd2 = double __attribute__((vector_size(16)));

std::size_t index(int cx, int cy, int ncx) {
  return static_cast<std::size_t>(cy) * static_cast<std::size_t>(ncx) +
         static_cast<std::size_t>(cx);
}

int at(std::span<const int> v, int i) { return v[static_cast<std::size_t>(i)]; }

/// Sum of a band's terms lo..hi, from its prefix row.
double span_sum(std::span<const double> prefix, int lo, int hi) {
  return prefix[static_cast<std::size_t>(hi)] -
         (lo > 0 ? prefix[static_cast<std::size_t>(lo - 1)] : 0.0);
}

}  // namespace

void walk_band_pair(int len, const ExitBand& a, const ExitBand& b,
                    std::span<double> prefix_a, std::span<double> prefix_b) {
  FICON_ASSERT(len >= 1 && prefix_a.size() >= static_cast<std::size_t>(len) &&
                   prefix_b.size() >= static_cast<std::size_t>(len),
               "walk_band_pair: prefix rows shorter than the band");
  const vd2 q{static_cast<double>(a.q), static_cast<double>(b.q)};
  const vd2 v{static_cast<double>(a.v), static_cast<double>(b.v)};
  vd2 term{a.seed, b.seed};
  vd2 running{0.0, 0.0};
  for (int i = 0; i + 1 < len; ++i) {
    running += term;
    prefix_a[static_cast<std::size_t>(i)] = running[0];
    prefix_b[static_cast<std::size_t>(i)] = running[1];
    // All operands are small integers, so q + p and u + v are exact and
    // each lane rounds exactly where the scalar recurrence does.
    const double p = static_cast<double>(i + 1);
    const double u = static_cast<double>(len - 1 - i);
    term *= ((q + p) / p) * (u / (u + v));
  }
  running += term;
  prefix_a[static_cast<std::size_t>(len - 1)] = running[0];
  prefix_b[static_cast<std::size_t>(len - 1)] = running[1];
}

template <typename Add>
void BandedNetScorer::walk_bands(int len, Add&& add) {
  const std::size_t n = bands_.size();
  const auto row = static_cast<std::size_t>(len);
  prefix_.resize(2 * row);
  const std::span<double> first(prefix_.data(), row);
  const std::span<double> second(prefix_.data() + row, row);
  for (std::size_t k = 0; k < n; k += 2) {
    // An odd last band rides in both lanes; the second is discarded.
    const std::size_t k2 = std::min(k + 1, n - 1);
    walk_band_pair(len, bands_[k], bands_[k2], first, second);
    add(band_cell_[k], first);
    if (k2 != k) add(band_cell_[k2], second);
  }
}

void BandedNetScorer::fill(LogFactorialTable& table, const NetGridShape& shape,
                           std::span<const int> lx1, std::span<const int> lx2,
                           std::span<const int> ly1, std::span<const int> ly2,
                           std::vector<double>& probs) {
  const int g1 = shape.g1;
  const int g2 = shape.g2;
  FICON_ASSERT(g1 >= 2 && g2 >= 2, "banded scoring needs a 2-D lattice");
  FICON_ASSERT(lx2.size() == lx1.size() && ly2.size() == ly1.size(),
               "banded scoring: span arrays differ in length");
  const int ncx = static_cast<int>(lx1.size());
  const int ncy = static_cast<int>(ly1.size());
  obs::count(obs::Counter::kIrRegionsBanded,
             static_cast<long long>(ncx) * ncy);
  probs.assign(static_cast<std::size_t>(ncx) * static_cast<std::size_t>(ncy),
               0.0);

  // Canonical frame: mirror the y-spans for type II nets.
  row_cy1_.resize(static_cast<std::size_t>(ncy));
  row_cy2_.resize(static_cast<std::size_t>(ncy));
  for (std::size_t cy = 0; cy < row_cy1_.size(); ++cy) {
    row_cy1_[cy] = shape.type2 ? g2 - 1 - ly2[cy] : ly1[cy];
    row_cy2_[cy] = shape.type2 ? g2 - 1 - ly1[cy] : ly2[cy];
  }

  const double log_total = table.log_choose(g1 + g2 - 2, g2 - 1);

  // --- Top-exit pass: one band of length g1 per covered IR row.
  bands_.clear();
  band_cell_.clear();
  for (int cy = 0; cy < ncy; ++cy) {
    const int top = at(row_cy2_, cy);
    if (top >= g2 - 1) continue;  // no cell above: no top exits
    const int v = g2 - 2 - top;
    const double log_seed = table.log_choose(g1 - 1 + v, v) - log_total;
    bands_.push_back({std::exp(log_seed), top, v});
    band_cell_.push_back(cy);
  }
  walk_bands(g1, [&](int cy, std::span<const double> prefix) {
    for (int cx = 0; cx < ncx; ++cx) {
      probs[index(cx, cy, ncx)] += span_sum(prefix, at(lx1, cx), at(lx2, cx));
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
  walk_bands(g2, [&](int cx, std::span<const double> prefix) {
    for (int cy = 0; cy < ncy; ++cy) {
      probs[index(cx, cy, ncx)] +=
          span_sum(prefix, at(row_cy1_, cy), at(row_cy2_, cy));
    }
  });

  // --- Pin override + clamp.
  for (int cy = 0; cy < ncy; ++cy) {
    const int cy1 = at(row_cy1_, cy);
    const int cy2 = at(row_cy2_, cy);
    for (int cx = 0; cx < ncx; ++cx) {
      double& p = probs[index(cx, cy, ncx)];
      const bool covers_source = at(lx1, cx) == 0 && cy1 == 0;
      const bool covers_sink = at(lx2, cx) == g1 - 1 && cy2 == g2 - 1;
      if (covers_source || covers_sink) p = 1.0;
      p = std::clamp(p, 0.0, 1.0);
    }
  }
}

}  // namespace ficon
