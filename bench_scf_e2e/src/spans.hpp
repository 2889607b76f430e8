#pragma once
// Benchmark-side spans: name, start, end, parent and run id for every call
// the traced run makes into a layer of the program. Spans live in memory
// and are written once, at exit, as a chrome-trace JSON file that a viewer
// opens as a timeline and from which self time per layer is derived.
//
// ScopedSpan doubles as the benchmark's timer: seconds() works whether or
// not recording is on, so untraced (end-to-end) runs time the same scopes
// without keeping any span.

#include <cstdint>
#include <string>

namespace bench {

/// Turn span recording on or off (off by default). Call before any span.
void set_spans_enabled(bool on);

/// Write every recorded span to `path`; `meta_json` is a JSON object
/// embedded verbatim under "meta". Returns false if the file cannot be
/// written.
bool write_spans(const std::string& path, const std::string& meta_json);

/// Per-layer self time (the span's duration minus the part of it covered
/// by its children), summed by layer = span name up to the first '.', as a
/// JSON object {"layer": seconds, ...}.
[[nodiscard]] std::string self_seconds_by_layer_json();

class ScopedSpan {
 public:
  /// Child of the calling thread's innermost open span (or a root).
  explicit ScopedSpan(std::string name);
  /// Explicit parent and run id: for spans opened on a fresh thread (whose
  /// stack is empty) or that start a new run (e.g. one serve job).
  ScopedSpan(std::string name, std::uint64_t parent, std::uint64_t run);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Close the span now (idempotent) and return its duration in seconds.
  double stop();
  /// Elapsed seconds so far (or the duration, once stopped).
  [[nodiscard]] double seconds() const;
  /// Span id (0 when recording is off).
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] std::uint64_t run() const { return run_; }

 private:
  void open(std::string name, std::uint64_t parent, std::uint64_t run);

  std::uint64_t id_ = 0;
  std::uint64_t run_ = 0;
  std::uint64_t t0_ns_ = 0;
  std::uint64_t t1_ns_ = 0;
  bool open_ = true;
};

/// Steady-clock nanoseconds.
[[nodiscard]] std::uint64_t now_ns();

}  // namespace bench
