#pragma once
// In-memory spans recorded by the benchmark around its calls into the
// program's public functions. Spans stay in memory while the run measures
// and are written out once when it ends.
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint32_t parent = 0;  ///< the span that caused this one (0 = root)
  std::string name;
  double start_s = 0.0;  ///< seconds since the tracer was created
  double end_s = 0.0;
};

/// Thread-safe span recorder: the service workload records query spans on
/// the client thread while the main thread is inside Coordinator::serve.
class Tracer {
 public:
  Tracer();

  /// Open a span; returns its id.
  std::uint32_t begin(std::string name, std::uint32_t parent);
  void end(std::uint32_t id);

  [[nodiscard]] std::vector<Span> spans() const;

  /// RAII span: opened on construction, closed on destruction.
  class Scope {
   public:
    Scope(Tracer& t, std::string name, std::uint32_t parent = 0)
        : tracer_(t), id_(t.begin(std::move(name), parent)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint32_t id() const { return id_; }

   private:
    Tracer& tracer_;
    std::uint32_t id_;
  };

 private:
  std::chrono::steady_clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_; index = id - 1
};

/// A span's duration minus the part of its interval that its child spans
/// cover. Children may overlap each other (spans from concurrent threads);
/// their union is subtracted once, clipped to the parent's interval.
[[nodiscard]] double self_time(const std::vector<Span>& spans,
                               std::uint32_t id);

/// Summed duration of every span named `name`.
[[nodiscard]] double total_time(const std::vector<Span>& spans,
                                std::string_view name);

/// Summed self time of every span named `name`.
[[nodiscard]] double total_self_time(const std::vector<Span>& spans,
                                     std::string_view name);

/// Write spans as JSON lines, one object per span, tagged with `rep`.
void write_spans(std::ostream& os, const std::vector<Span>& spans, int rep);

}  // namespace perfbench
