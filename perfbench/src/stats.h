#pragma once
// Order statistics for the benchmark's timings: medians of repetitions and
// nearest-rank percentiles that state how many samples back them.
#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty vector.
[[nodiscard]] double median(std::vector<double> v);

/// A nearest-rank percentile with the sample count it rests on.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< values the percentile was selected from
  std::size_t beyond = 0;   ///< samples strictly above its rank
};

/// Nearest-rank percentile: the value at 1-based rank ceil(n * percent /
/// 100) of the sorted samples, computed in integers so p99 of exactly 1000
/// samples is rank 990 with 10 samples beyond it. Empty input gives a zero
/// Percentile. `percent` must be in [1, 100].
[[nodiscard]] Percentile percentile(std::vector<double> v, unsigned percent);

/// Closed-loop latency over consecutive chunks of samples. Timing noise on
/// a shared machine only ever adds time (Chen & Revels, arXiv:1608.04295),
/// so each statistic is taken from the best decile of chunks: the 10th
/// percentile of the chunks' p50, p99 and mean latency (the rate is one
/// over that mean). A single best chunk would be a lucky outlier. Memory
/// stays bounded by one chunk.
class LatencyChunks {
 public:
  explicit LatencyChunks(std::size_t chunk) : chunk_(chunk) {}

  /// Add one latency in milliseconds, in send order.
  void add(double ms);

  struct Summary {
    double p50 = 0.0;
    double p99 = 0.0;
    double per_s = 0.0;       ///< 1 / mean latency: closed loop, 1 client
    std::size_t samples = 0;  ///< all samples added
    std::size_t chunks = 0;   ///< chunks the statistics come from
    std::size_t chunk = 0;    ///< samples per chunk
    std::size_t beyond = 0;   ///< samples beyond the p99 rank in a chunk
  };

  /// Nearest-rank percentile taken over the chunk statistics.
  static constexpr unsigned kBestDecile = 10;

  /// Best-decile statistics over the full chunks. A trailing partial chunk
  /// is left out, unless no chunk is full: then the partial one is used.
  [[nodiscard]] Summary summary() const;

 private:
  struct Stat {
    double p50 = 0.0;
    double p99 = 0.0;
    double mean = 0.0;
    std::size_t size = 0;
    std::size_t beyond = 0;
  };
  [[nodiscard]] static Stat stat(const std::vector<double>& part);

  std::size_t chunk_;
  std::size_t samples_ = 0;
  std::vector<double> open_;  ///< the chunk being filled
  std::vector<Stat> full_;
};

}  // namespace perfbench
