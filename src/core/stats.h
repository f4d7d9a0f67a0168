// Descriptive statistics used by the regional carbon-intensity analysis
// (Fig. 6 box plots + coefficient of variation) and by the test suite's
// property checks.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace hpcarbon::stats {

double mean(std::span<const double> xs);
/// Sample variance (n-1 denominator); 0 for fewer than two samples.
double variance(std::span<const double> xs);
double stddev(std::span<const double> xs);
double min(std::span<const double> xs);
double max(std::span<const double> xs);

/// Coefficient of variation as a percentage: 100 * stddev / mean.
/// This is exactly the metric of Fig. 6(b).
double cov_percent(std::span<const double> xs);

/// Linear-interpolation quantile (R type-7, the matplotlib/numpy default the
/// paper's box plots were drawn with). p in [0,1].
double quantile(std::span<const double> xs, double p);
double median(std::span<const double> xs);

/// One-sort descriptive summary of a sample.
///
/// The free functions above each rescan (and `quantile` copies and
/// partially sorts) their input per call, which is fine for one-off
/// figures but quadratic-feeling in summarization loops: the Monte-Carlo
/// layer asks for mean, stddev, and several quantiles of the same vector.
/// Summary pays one pass for the moments plus one sort at construction;
/// every quantile afterwards is an O(1) interpolation on the sorted data.
/// Moments are accumulated over the input order (before sorting), so
/// mean()/stddev() are bit-identical to the free functions on the same
/// span.
class Summary {
 public:
  Summary() = default;
  explicit Summary(std::span<const double> xs);
  /// Takes ownership of the buffer (sorted in place; no copy).
  explicit Summary(std::vector<double>&& xs);

  std::size_t count() const { return sorted_.size(); }
  bool empty() const { return sorted_.empty(); }

  double mean() const;
  double variance() const;  // sample variance, n-1 denominator
  double stddev() const;
  double min() const;
  double max() const;

  /// R type-7 linear-interpolation quantile on the pre-sorted data; p in
  /// [0,1]. Matches stats::quantile exactly, without the per-call sort.
  double quantile(double p) const;
  double median() const { return quantile(0.5); }

  /// The samples in ascending order.
  const std::vector<double>& sorted() const { return sorted_; }

 private:
  void finalize(std::span<const double> original_order);

  std::vector<double> sorted_;
  double mean_ = 0;
  double variance_ = 0;
};

/// Five-number summary plus Tukey whiskers (1.5 IQR clamped to data range),
/// i.e. the geometry of one box in Fig. 6(a).
struct BoxStats {
  double whisker_low = 0;
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  double whisker_high = 0;
  double mean = 0;
  double min = 0;
  double max = 0;
};
BoxStats box_stats(std::span<const double> xs);

/// Fixed-width histogram over [lo, hi); values outside are clamped into the
/// edge bins. Returns per-bin counts.
std::vector<std::size_t> histogram(std::span<const double> xs, double lo,
                                   double hi, std::size_t bins);

/// Pearson correlation coefficient; 0 if either side is constant.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Streaming mean/variance (Welford). Used by the energy meter, which
/// cannot buffer a full year of samples.
class Welford {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const;  // sample variance
  double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
};

}  // namespace hpcarbon::stats
