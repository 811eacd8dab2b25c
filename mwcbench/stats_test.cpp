// Checks summarize() against hand-computed vectors. Exits non-zero on the
// first mismatch; run.py runs it before every benchmark run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void expect_near(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-9) {
    std::fprintf(stderr, "stats_test: %s = %.12g, want %.12g\n", what, got,
                 want);
    ++g_failures;
  }
}

void expect_eq(const char* what, std::size_t got, std::size_t want) {
  if (got != want) {
    std::fprintf(stderr, "stats_test: %s = %zu, want %zu\n", what, got, want);
    ++g_failures;
  }
}

}  // namespace

int main() {
  using mwcbench::summarize;

  // Odd count: quantiles([1..5]) = [1.5, 3, 4.5].
  {
    const auto s = summarize({5, 1, 4, 2, 3});
    expect_near("odd.median", s.median, 3.0);
    expect_near("odd.q1", s.q1, 1.5);
    expect_near("odd.q3", s.q3, 4.5);
    expect_near("odd.tail", s.tail, 5.0);  // too few samples: the maximum
    expect_near("odd.tail_percentile", s.tail_percentile, 100.0);
    expect_eq("odd.tail_beyond", s.tail_beyond, 0);
  }
  // Even count, unsorted input: quantiles([1,3,5,7]) = [1.5, 4, 6.5].
  {
    const auto s = summarize({7, 1, 3, 5});
    expect_near("even.median", s.median, 4.0);
    expect_near("even.q1", s.q1, 1.5);
    expect_near("even.q3", s.q3, 6.5);
  }
  // One sample.
  {
    const auto s = summarize({2.5});
    expect_near("one.median", s.median, 2.5);
    expect_near("one.q1", s.q1, 2.5);
    expect_near("one.q3", s.q3, 2.5);
    expect_eq("one.count", s.count, 1);
  }
  // 1..100: ten samples beyond rank 90, so the tail is p90 = 90.
  {
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i) v.push_back(i);
    const auto s = summarize(v);
    expect_near("hundred.median", s.median, 50.5);
    expect_near("hundred.q1", s.q1, 25.25);
    expect_near("hundred.q3", s.q3, 75.75);
    expect_near("hundred.tail", s.tail, 90.0);
    expect_near("hundred.tail_percentile", s.tail_percentile, 90.0);
    expect_eq("hundred.tail_beyond", s.tail_beyond, 10);
  }
  // Eleven samples: the smallest count with a tail below the maximum.
  {
    std::vector<double> v;
    for (int i = 1; i <= 11; ++i) v.push_back(i);
    const auto s = summarize(v);
    expect_near("eleven.tail", s.tail, 1.0);
    expect_near("eleven.tail_percentile", s.tail_percentile, 100.0 / 11.0);
  }
  // Bimodal like service-mix: 180 small requests near 2 ms and 20 mid-size
  // ones near 2 s. p95 keeps ten samples beyond it and lands in the middle
  // of the mid-size class (its 10th value), not on the class edge.
  {
    std::vector<double> v;
    for (int i = 0; i < 180; ++i) v.push_back(2.0 + 0.001 * i);
    for (int i = 0; i < 20; ++i) v.push_back(2000.0 + 10.0 * i);
    const auto s = summarize(v);
    expect_eq("bimodal.count", s.count, 200);
    expect_near("bimodal.median", s.median, 2.0995);
    expect_near("bimodal.q1", s.q1, 2.04925);
    expect_near("bimodal.q3", s.q3, 2.14975);
    expect_near("bimodal.tail", s.tail, 2090.0);
    expect_near("bimodal.tail_percentile", s.tail_percentile, 95.0);
    expect_eq("bimodal.tail_beyond", s.tail_beyond, 10);
  }
  // With only ten mid-size samples the same percentile falls on the edge:
  // the tail reads the largest small request.
  {
    std::vector<double> v;
    for (int i = 0; i < 190; ++i) v.push_back(2.0 + 0.001 * i);
    for (int i = 0; i < 10; ++i) v.push_back(2000.0 + 10.0 * i);
    const auto s = summarize(v);
    expect_near("edge.tail", s.tail, 2.189);
  }
  if (g_failures != 0) return EXIT_FAILURE;
  std::printf("stats_test: ok\n");
  return EXIT_SUCCESS;
}
