#include "stats.h"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

Percentile percentile(std::vector<double> v, unsigned percent) {
  if (percent == 0 || percent > 100)
    throw std::invalid_argument("percentile: percent must be in [1, 100]");
  Percentile p;
  p.samples = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const std::size_t rank = (v.size() * percent + 99) / 100;  // >= 1
  p.value = v[rank - 1];
  p.beyond = v.size() - rank;
  return p;
}

void LatencyChunks::add(double ms) {
  ++samples_;
  open_.push_back(ms);
  if (open_.size() == chunk_) {
    full_.push_back(stat(open_));
    open_.clear();
  }
}

LatencyChunks::Stat LatencyChunks::stat(const std::vector<double>& part) {
  Stat s;
  double busy = 0.0;
  for (const double v : part) busy += v;
  const Percentile p99 = percentile(part, 99);
  s.p50 = percentile(part, 50).value;
  s.p99 = p99.value;
  s.beyond = p99.beyond;
  s.size = part.size();
  s.mean = busy / static_cast<double>(part.size());
  return s;
}

LatencyChunks::Summary LatencyChunks::summary() const {
  Summary out;
  out.samples = samples_;
  std::vector<Stat> stats = full_;
  if (stats.empty() && !open_.empty()) stats.push_back(stat(open_));
  out.chunks = stats.size();
  if (stats.empty()) return out;
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> mean;
  for (const Stat& s : stats) {
    p50.push_back(s.p50);
    p99.push_back(s.p99);
    mean.push_back(s.mean);
  }
  out.p50 = percentile(p50, kBestDecile).value;
  out.p99 = percentile(p99, kBestDecile).value;
  const double best_mean = percentile(mean, kBestDecile).value;
  out.per_s = best_mean > 0.0 ? 1e3 / best_mean : 0.0;
  out.chunk = stats.front().size;
  out.beyond = stats.front().beyond;
  return out;
}

}  // namespace perfbench
