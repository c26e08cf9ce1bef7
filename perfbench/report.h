// Metric collection and the summary statistics the benchmark reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "util/types.h"

namespace perfbench {

using bigmap::u64;
using bigmap::usize;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Ordered list of named metrics; printing order is insertion order.
class MetricSet {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& all() const noexcept { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Operations attempted and failed during a run, plus the correctness
// verdict. Every failed check is also a failed operation, so
// failed / attempted is the run's error rate.
struct Outcome {
  u64 attempted = 0;
  u64 failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  // Counts one correctness check; a failing check marks the run incorrect.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
      problems.push_back(what);
    }
  }
  // Counts operations the program itself reports (saves, appends, worker
  // launches) and how many of them failed.
  void ops(u64 tried, u64 lost) {
    attempted += tried;
    failed += lost;
  }
};

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const usize lo = static_cast<usize>(std::floor(pos));
  const usize hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

}  // namespace perfbench
