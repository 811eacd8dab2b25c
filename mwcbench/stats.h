// Order statistics for the benchmark's timings.
//
// summarize() returns the median, the quartiles and the tail of a sample.
// Quartiles use the "exclusive" interpolation of Python's
// statistics.quantiles(values, n=4), so figures printed here can be checked
// against the tooling that compares runs. The tail is the latency at the
// highest percentile that still has at least kTailBeyond samples above it:
// the nearest-rank value at rank count - kTailBeyond (1-based), reported
// with that percentile and the sample count. A sample of kTailBeyond or
// fewer values has no such percentile; the tail is then its maximum and
// tail_percentile is 100.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace mwcbench {

inline constexpr std::size_t kTailBeyond = 10;

struct Summary {
  std::size_t count = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;  // 100 * (count - beyond) / count
  std::size_t tail_beyond = 0;   // samples strictly above the tail rank
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.count = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  if (n == 1) {
    s.q1 = s.q3 = v[0];
  } else {
    // statistics.quantiles(method="exclusive"): m = n + 1, j = i*m // 4
    // clamped to [1, n-1], delta = i*m - 4*j.
    auto quartile = [&](std::size_t i) {
      std::size_t j = i * (n + 1) / 4;
      j = std::clamp<std::size_t>(j, 1, n - 1);
      const double delta = static_cast<double>(i * (n + 1)) -
                           static_cast<double>(4 * j);
      return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    };
    s.q1 = quartile(1);
    s.q3 = quartile(3);
  }
  if (n > kTailBeyond) {
    s.tail_beyond = kTailBeyond;
    s.tail = v[n - kTailBeyond - 1];
    s.tail_percentile =
        100.0 * static_cast<double>(n - kTailBeyond) / static_cast<double>(n);
  } else {
    s.tail = v[n - 1];
    s.tail_percentile = 100.0;
  }
  return s;
}

}  // namespace mwcbench
