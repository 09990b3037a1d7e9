#include "trace.h"

#include <algorithm>
#include <utility>

namespace perfbench {

Tracer::Tracer() : t0_(std::chrono::steady_clock::now()) {}

std::uint32_t Tracer::begin(std::string name, std::uint32_t parent) {
  const double now =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
          .count();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.name = std::move(name);
  s.start_s = now;
  s.end_s = now;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::end(std::uint32_t id) {
  const double now =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
          .count();
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= 1 && id <= spans_.size()) spans_[id - 1].end_s = now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double self_time(const std::vector<Span>& spans, std::uint32_t id) {
  const auto it = std::find_if(spans.begin(), spans.end(),
                               [&](const Span& s) { return s.id == id; });
  if (it == spans.end()) return 0.0;
  const Span& parent = *it;
  std::vector<std::pair<double, double>> kids;
  for (const Span& s : spans) {
    if (s.parent != id) continue;
    const double a = std::max(s.start_s, parent.start_s);
    const double b = std::min(s.end_s, parent.end_s);
    if (b > a) kids.emplace_back(a, b);
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0;
  double cur_a = 0.0;
  double cur_b = 0.0;
  bool open = false;
  for (const auto& [a, b] : kids) {
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) covered += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) covered += cur_b - cur_a;
  return (parent.end_s - parent.start_s) - covered;
}

double total_time(const std::vector<Span>& spans, std::string_view name) {
  double t = 0.0;
  for (const Span& s : spans)
    if (s.name == name) t += s.end_s - s.start_s;
  return t;
}

double total_self_time(const std::vector<Span>& spans, std::string_view name) {
  double t = 0.0;
  for (const Span& s : spans)
    if (s.name == name) t += self_time(spans, s.id);
  return t;
}

void write_spans(std::ostream& os, const std::vector<Span>& spans, int rep) {
  const auto precision = os.precision(12);
  for (const Span& s : spans)
    os << "{\"rep\": " << rep << ", \"id\": " << s.id
       << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
       << "\", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
       << "}\n";
  os.precision(precision);
}

}  // namespace perfbench
