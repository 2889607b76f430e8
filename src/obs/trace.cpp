#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "common/memory_tracker.hpp"

namespace mc::obs {

namespace {

bool env_obs_enabled() {
  const char* v = std::getenv("MC_OBS");
  return v != nullptr && v[0] == '1' && v[1] == '\0';
}

std::atomic<bool>& trace_flag() {
  static std::atomic<bool> flag{env_obs_enabled()};
  return flag;
}

struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::int32_t rank = -1;
};

/// Events per thread; wraparound overwrites the oldest (the tail of a long
/// run is usually the interesting part, and a bounded buffer keeps the
/// recording cost flat).
constexpr std::size_t kRingCapacity = std::size_t{1} << 14;

struct TraceBuffer {
  explicit TraceBuffer(int id_in) : id(id_in), events(kRingCapacity) {}

  const int id;
  std::vector<TraceEvent> events;
  /// Total events ever recorded; slot = count % kRingCapacity. The
  /// release store publishes the payload write for a quiescent reader.
  std::atomic<std::uint64_t> count{0};

  void push(const char* name, std::uint64_t t0, std::uint64_t t1, int rank) {
    const std::uint64_t n = count.load(std::memory_order_relaxed);
    events[n % kRingCapacity] = {name, t0, t1, rank};
    count.store(n + 1, std::memory_order_release);
  }
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<TraceBuffer>> buffers;
};

/// Leaked intentionally: thread_local destructors of detached threads can
/// run after static destruction, and the buffers must outlive them.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

TraceBuffer& local_buffer() {
  thread_local TraceBuffer* buf = [] {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    r.buffers.push_back(
        std::make_unique<TraceBuffer>(static_cast<int>(r.buffers.size())));
    return r.buffers.back().get();
  }();
  return *buf;
}

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void write_json_escaped(std::ostream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      os << c;
    }
  }
}

}  // namespace

std::uint64_t monotonic_ns() { return steady_now_ns(); }

bool trace_enabled() {
  return trace_flag().load(std::memory_order_relaxed);
}

void set_trace_enabled(bool on) {
  trace_flag().store(on, std::memory_order_relaxed);
}

void reset_trace() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (auto& b : r.buffers) b->count.store(0, std::memory_order_release);
}

std::size_t trace_event_count() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  std::size_t total = 0;
  for (const auto& b : r.buffers) {
    const std::uint64_t n = b->count.load(std::memory_order_acquire);
    total += static_cast<std::size_t>(std::min<std::uint64_t>(n, kRingCapacity));
  }
  return total;
}

std::size_t trace_events_dropped() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  std::size_t dropped = 0;
  for (const auto& b : r.buffers) {
    const std::uint64_t n = b->count.load(std::memory_order_acquire);
    if (n > kRingCapacity) dropped += static_cast<std::size_t>(n - kRingCapacity);
  }
  return dropped;
}

namespace detail {

void record_event(const char* name, std::uint64_t t0_ns, std::uint64_t t1_ns) {
  local_buffer().push(name, t0_ns, t1_ns, MemoryTracker::current_rank());
}

}  // namespace detail

void write_chrome_trace(std::ostream& os) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);

  // Timestamps count from the earliest held event, so the timeline starts
  // at zero and every event keeps its true offset.
  std::uint64_t epoch = std::numeric_limits<std::uint64_t>::max();
  for (const auto& b : r.buffers) {
    const std::uint64_t n = b->count.load(std::memory_order_acquire);
    const std::uint64_t held = std::min<std::uint64_t>(n, kRingCapacity);
    for (std::uint64_t k = n - held; k < n; ++k) {
      epoch = std::min(epoch, b->events[k % kRingCapacity].t0);
    }
  }

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Process (= rank) name metadata so the viewer labels the lanes.
  std::vector<int> ranks_seen;
  for (const auto& b : r.buffers) {
    const std::uint64_t n = b->count.load(std::memory_order_acquire);
    const std::uint64_t held = std::min<std::uint64_t>(n, kRingCapacity);
    // Oldest surviving event first (chronological within a thread).
    const std::uint64_t start = n - held;
    for (std::uint64_t k = start; k < n; ++k) {
      const TraceEvent& ev = b->events[k % kRingCapacity];
      bool known = false;
      for (int rk : ranks_seen) known = known || rk == ev.rank;
      if (!known) {
        ranks_seen.push_back(ev.rank);
        if (!first) os << ",";
        first = false;
        os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << ev.rank
           << ",\"args\":{\"name\":\""
           << (ev.rank < 0 ? "serial" : "rank ") ;
        if (ev.rank >= 0) os << ev.rank;
        os << "\"}}";
      }
      if (!first) os << ",";
      first = false;
      const double ts_us =
          static_cast<double>(ev.t0 >= epoch ? ev.t0 - epoch : 0) / 1000.0;
      const double dur_us =
          static_cast<double>(ev.t1 >= ev.t0 ? ev.t1 - ev.t0 : 0) / 1000.0;
      os << "{\"name\":\"";
      write_json_escaped(os, ev.name);
      os << "\",\"cat\":\"obs\",\"ph\":\"X\",\"pid\":" << ev.rank
         << ",\"tid\":" << b->id << ",\"ts\":" << ts_us << ",\"dur\":"
         << dur_us << "}";
    }
  }
  os << "]}\n";
}

bool write_chrome_trace_file(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  write_chrome_trace(out);
  return static_cast<bool>(out);
}

}  // namespace mc::obs
