// Environment-variable knobs for experiment scaling.
//
// The paper ran 20 annealing seeds per table cell on a 2.4 GHz P4; the
// default bench configuration here is scaled down so the whole harness runs
// in minutes. FICON_SEEDS / FICON_SCALE / FICON_CIRCUITS restore paper-scale
// runs without recompiling.
//
// An unset or empty knob reads as its default. A set knob that does not
// parse (FICON_THREADS=abc, FICON_SEEDS=99999999999) throws
// std::invalid_argument naming the knob: untrusted input fails loudly
// instead of falling back to the default in silence.
#pragma once

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace ficon {

inline std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::string(v) : fallback;
}

inline int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || parsed < INT_MIN ||
      parsed > INT_MAX) {
    throw std::invalid_argument(std::string(name) + ": '" + v +
                                "' is not an integer in int range");
  }
  return static_cast<int>(parsed);
}

inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0' || !std::isfinite(parsed)) {
    throw std::invalid_argument(std::string(name) + ": '" + v +
                                "' is not a finite number");
  }
  return parsed;
}

/// Comma-separated list (e.g. FICON_CIRCUITS=apte,ami33).
inline std::vector<std::string> env_list(const char* name,
                                         const std::vector<std::string>& fb) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fb;
  std::vector<std::string> out;
  std::istringstream is(v);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out.empty() ? fb : out;
}

}  // namespace ficon
