#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "report.hpp"

namespace bench {
namespace {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t run = 0;
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;  // 0 while open
  int tid = 0;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;  // guards everything below
std::vector<SpanRecord> g_spans;  // index = id - 1
std::uint64_t g_epoch_ns = 0;
int g_next_tid = 0;

struct Frame {
  std::uint64_t id;
  std::uint64_t run;
};
thread_local std::vector<Frame> t_stack;
thread_local int t_tid = -1;

/// Self seconds of every closed span: duration minus the union of its
/// children's intervals (children on other threads may overlap).
std::vector<double> self_seconds_locked() {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      g_spans.size());
  for (const SpanRecord& s : g_spans) {
    if (s.parent != 0 && s.end_ns != 0) {
      kids[s.parent - 1].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> self(g_spans.size(), 0.0);
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRecord& s = g_spans[i];
    if (s.end_ns == 0) continue;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_lo = 0;
    std::uint64_t cur_hi = 0;
    for (const auto& [lo0, hi0] : iv) {
      const std::uint64_t lo = std::max(lo0, s.start_ns);
      const std::uint64_t hi = std::min(hi0, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    covered += cur_hi - cur_lo;
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// {"layer": self seconds summed over the layer's spans}; holds g_mu.
std::string by_layer_json_locked(const std::vector<double>& self) {
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    if (g_spans[i].end_ns != 0) by_layer[layer_of(g_spans[i].name)] += self[i];
  }
  std::string out = "{";
  for (const auto& [layer, s] : by_layer) {
    if (out.size() > 1) out += ", ";
    out += json_string(layer) + ": " + json_number(s);
  }
  return out + "}";
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void set_spans_enabled(bool on) {
  std::lock_guard<std::mutex> lk(g_mu);
  if (on && g_epoch_ns == 0) g_epoch_ns = now_ns();
  g_enabled.store(on, std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(std::string name) {
  const std::uint64_t parent = t_stack.empty() ? 0 : t_stack.back().id;
  const std::uint64_t run = t_stack.empty() ? 0 : t_stack.back().run;
  open(std::move(name), parent, run);
}

ScopedSpan::ScopedSpan(std::string name, std::uint64_t parent,
                       std::uint64_t run) {
  open(std::move(name), parent, run);
}

void ScopedSpan::open(std::string name, std::uint64_t parent,
                      std::uint64_t run) {
  run_ = run;
  if (!g_enabled.load(std::memory_order_relaxed)) {
    t0_ns_ = now_ns();
    return;
  }
  std::lock_guard<std::mutex> lk(g_mu);
  if (t_tid < 0) t_tid = g_next_tid++;
  // The timestamp is taken under the lock, so span ids are assigned in
  // start-time order: starts are monotone in id.
  t0_ns_ = now_ns();
  SpanRecord rec;
  rec.id = g_spans.size() + 1;
  rec.parent = parent;
  rec.run = run;
  rec.name = std::move(name);
  rec.start_ns = t0_ns_;
  rec.tid = t_tid;
  id_ = rec.id;
  g_spans.push_back(std::move(rec));
  t_stack.push_back({id_, run_});
}

ScopedSpan::~ScopedSpan() { stop(); }

double ScopedSpan::stop() {
  if (open_) {
    open_ = false;
    t1_ns_ = now_ns();
    if (id_ != 0) {
      std::lock_guard<std::mutex> lk(g_mu);
      g_spans[id_ - 1].end_ns = t1_ns_;
      // Spans close in LIFO order on their own thread.
      if (!t_stack.empty() && t_stack.back().id == id_) t_stack.pop_back();
    }
  }
  return seconds();
}

double ScopedSpan::seconds() const {
  const std::uint64_t t1 = open_ ? now_ns() : t1_ns_;
  return static_cast<double>(t1 - t0_ns_) * 1e-9;
}

std::string self_seconds_by_layer_json() {
  std::lock_guard<std::mutex> lk(g_mu);
  return by_layer_json_locked(self_seconds_locked());
}

bool write_spans(const std::string& path, const std::string& meta_json) {
  std::lock_guard<std::mutex> lk(g_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = self_seconds_locked();
  const std::string by_layer = by_layer_json_locked(self);
  std::fprintf(f, "{\"schema\": \"bench_scf_e2e.spans/1\",\n");
  std::fprintf(f, " \"meta\": %s,\n", meta_json.c_str());
  std::fprintf(f, " \"self_seconds_by_layer\": %s,\n", by_layer.c_str());
  std::fprintf(f, " \"displayTimeUnit\": \"ms\",\n \"traceEvents\": [");
  bool first = true;
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRecord& s = g_spans[i];
    if (s.end_ns == 0) continue;
    // ts/dur in microseconds since recording was enabled (chrome-trace
    // "X" events); args carry the span tree.
    std::fprintf(f,
                 "%s\n  {\"name\": %s, \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu, \"run\": %llu, "
                 "\"self_s\": %.9f}}",
                 first ? "" : ",", json_string(s.name).c_str(), s.tid,
                 static_cast<double>(s.start_ns - g_epoch_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.run), self[i]);
    first = false;
  }
  std::fprintf(f, "\n ]}\n");
  return std::fclose(f) == 0;
}

}  // namespace bench
