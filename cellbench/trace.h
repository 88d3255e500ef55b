#ifndef CELLBENCH_TRACE_H_
#define CELLBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace cellbench {

/// Monotonic wall clock in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder. Spans are opened and closed on the benchmark's
/// main thread around its calls into each library layer; spans measured on
/// worker threads are added afterwards, already closed, with AddClosed. The
/// recorder is written once, at the end of the run, as Chrome trace-event
/// JSON (opens in Perfetto or chrome://tracing).
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;  ///< module of the library the span times
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int id = 0;
    int parent = -1;  ///< -1 for a root span
    int64_t thread = 0;
  };

  explicit Tracer(int run_id) : run_id_(run_id) {}

  /// Opens a span whose parent is the innermost open span.
  int Begin(const std::string& name, const std::string& layer);
  /// Closes span `id`, which must be the innermost open span.
  void End(int id);
  /// Records a finished span under the innermost open span.
  void AddClosed(const std::string& name, const std::string& layer,
                 int64_t start_ns, int64_t end_ns, int64_t thread);

  /// Durations in ms of the closed spans named `name`, in order.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Writes every span as a Chrome trace-event JSON file.
  bool WriteChromeJson(const std::string& path) const;

 private:
  int run_id_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name, const std::string& layer)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, layer) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace cellbench

#endif  // CELLBENCH_TRACE_H_
