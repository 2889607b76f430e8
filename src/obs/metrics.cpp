#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace mc::obs {

namespace {

bool env_obs_enabled() {
  const char* v = std::getenv("MC_OBS");
  return v != nullptr && v[0] == '1' && v[1] == '\0';
}

std::atomic<bool>& metrics_flag() {
  static std::atomic<bool> flag{env_obs_enabled()};
  return flag;
}

/// Fixed per-rank accumulator slots: ranks 0..kMaxTrackedRanks-1, with one
/// shared overflow/unattributed slot at the end (rank < 0 or beyond the
/// table -- far past the scale minimpi jobs reach in-process).
constexpr int kMaxTrackedRanks = 256;
constexpr int kSlots = kMaxTrackedRanks + 1;

int slot_of(int rank) {
  return (rank < 0 || rank >= kMaxTrackedRanks) ? kMaxTrackedRanks : rank;
}

std::atomic<std::uint64_t>& acc(Channel c, int rank) {
  static std::atomic<std::uint64_t> table[kChannelCount][kSlots] = {};
  return table[static_cast<int>(c)][slot_of(rank)];
}

constexpr int kEriClassDim = kMaxEriClassL + 1;

struct AtomicEriClassStats {
  std::atomic<std::uint64_t> quartets{0};
  std::atomic<std::uint64_t> boys_elements{0};
  std::atomic<std::uint64_t> ns{0};
};

AtomicEriClassStats& eri_class_acc(int lbra, int lket) {
  static AtomicEriClassStats table[kEriClassDim][kEriClassDim] = {};
  const int a = std::clamp(lbra, 0, kMaxEriClassL);
  const int b = std::clamp(lket, 0, kMaxEriClassL);
  return table[a][b];
}

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_size(std::string& out, std::size_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%zu", v);
  out += buf;
}

}  // namespace

bool metrics_enabled() {
  return metrics_flag().load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool on) {
  metrics_flag().store(on, std::memory_order_relaxed);
}

void reset_metrics() {
  for (int c = 0; c < kChannelCount; ++c) {
    for (int s = -1; s < kMaxTrackedRanks; ++s) {
      acc(static_cast<Channel>(c), s).store(0, std::memory_order_relaxed);
    }
  }
  for (int a = 0; a <= kMaxEriClassL; ++a) {
    for (int b = 0; b <= kMaxEriClassL; ++b) {
      AtomicEriClassStats& s = eri_class_acc(a, b);
      s.quartets.store(0, std::memory_order_relaxed);
      s.boys_elements.store(0, std::memory_order_relaxed);
      s.ns.store(0, std::memory_order_relaxed);
    }
  }
}

void add_eri_class(int lbra, int lket, std::uint64_t quartets,
                   std::uint64_t boys_elements, std::uint64_t ns) {
  AtomicEriClassStats& s = eri_class_acc(lbra, lket);
  s.quartets.fetch_add(quartets, std::memory_order_relaxed);
  s.boys_elements.fetch_add(boys_elements, std::memory_order_relaxed);
  s.ns.fetch_add(ns, std::memory_order_relaxed);
}

EriClassStats eri_class_stats(int lbra, int lket) {
  const AtomicEriClassStats& s = eri_class_acc(lbra, lket);
  return {s.quartets.load(std::memory_order_relaxed),
          s.boys_elements.load(std::memory_order_relaxed),
          s.ns.load(std::memory_order_relaxed)};
}

EriClassStats eri_class_totals() {
  EriClassStats total;
  for (int a = 0; a <= kMaxEriClassL; ++a) {
    for (int b = 0; b <= kMaxEriClassL; ++b) {
      const EriClassStats s = eri_class_stats(a, b);
      total.quartets += s.quartets;
      total.boys_elements += s.boys_elements;
      total.ns += s.ns;
    }
  }
  return total;
}

void add_channel_ns(Channel c, int rank, std::uint64_t ns) {
  acc(c, rank).fetch_add(ns, std::memory_order_relaxed);
}

std::uint64_t channel_ns(Channel c, int rank) {
  return acc(c, rank).load(std::memory_order_relaxed);
}

double channel_seconds(Channel c, int rank) {
  return static_cast<double>(channel_ns(c, rank)) * 1e-9;
}

double IterationRecord::load_imbalance() const {
  if (ranks.empty()) return 1.0;
  std::size_t total = 0;
  std::size_t mx = 0;
  for (const auto& r : ranks) {
    total += r.build.quartets;
    mx = std::max(mx, r.build.quartets);
  }
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(ranks.size());
  return static_cast<double>(mx) / mean;
}

std::string iteration_json(const IterationRecord& rec) {
  std::string out;
  out.reserve(512);
  out += "{\"type\":\"scf_iteration\",\"algorithm\":\"";
  out += rec.algorithm;
  out += "\",\"nranks\":";
  append_size(out, static_cast<std::size_t>(rec.nranks));
  out += ",\"nthreads\":";
  append_size(out, static_cast<std::size_t>(rec.nthreads));
  out += ",\"iter\":";
  append_size(out, static_cast<std::size_t>(rec.iteration));
  out += ",\"energy\":";
  append_double(out, rec.energy);
  out += ",\"delta_energy\":";
  append_double(out, rec.delta_energy);
  out += ",\"density_rms\":";
  append_double(out, rec.density_rms);
  out += ",\"full_rebuild\":";
  out += rec.full_rebuild ? "true" : "false";
  out += ",\"fock_seconds\":";
  append_double(out, rec.fock_seconds);
  out += ",\"quartets\":";
  append_size(out, rec.quartets);
  out += ",\"static_screened\":";
  append_size(out, rec.static_screened);
  out += ",\"density_screened\":";
  append_size(out, rec.density_screened);
  out += ",\"symmetry_skipped\":";
  append_size(out, rec.symmetry_skipped);
  out += ",\"screening_predicted_quartets\":";
  append_size(out, rec.screening_predicted_quartets);
  out += ",\"group_order\":";
  append_size(out, static_cast<std::size_t>(rec.group_order));
  out += ",\"load_imbalance\":";
  append_double(out, rec.load_imbalance());
  out += ",\"ranks\":[";
  for (std::size_t i = 0; i < rec.ranks.size(); ++i) {
    const RankIterationMetrics& r = rec.ranks[i];
    if (i > 0) out += ",";
    out += "{\"rank\":";
    char rankbuf[16];
    std::snprintf(rankbuf, sizeof(rankbuf), "%d", r.rank);
    out += rankbuf;
    out += ",\"pairs_claimed\":";
    append_size(out, r.build.pairs_claimed);
    out += ",\"quartets\":";
    append_size(out, r.build.quartets);
    out += ",\"static_screened\":";
    append_size(out, r.build.static_screened);
    out += ",\"density_screened\":";
    append_size(out, r.build.density_screened);
    out += ",\"symmetry_skipped\":";
    append_size(out, r.build.symmetry_skipped);
    out += ",\"thread_quartets\":[";
    for (std::size_t t = 0; t < r.build.thread_quartets.size(); ++t) {
      if (t > 0) out += ",";
      append_size(out, r.build.thread_quartets[t]);
    }
    out += "],\"dlb_wait_seconds\":";
    append_double(out, r.dlb_wait_seconds);
    out += ",\"gsum_seconds\":";
    append_double(out, r.gsum_seconds);
    out += ",\"barrier_seconds\":";
    append_double(out, r.barrier_seconds);
    out += ",\"peak_bytes\":";
    append_size(out, r.peak_bytes);
    out += ",\"tile_hits\":";
    append_size(out, r.build.tile_hits);
    out += ",\"tile_misses\":";
    append_size(out, r.build.tile_misses);
    out += "}";
  }
  out += "]}";
  return out;
}

const char* job_outcome_name(JobOutcomeKind k) {
  switch (k) {
    case JobOutcomeKind::kConverged: return "converged";
    case JobOutcomeKind::kUnconverged: return "unconverged";
    case JobOutcomeKind::kRejected: return "rejected";
    case JobOutcomeKind::kAborted: return "aborted";
  }
  return "unknown";
}

namespace {

/// Minimal JSON string escape: job records carry caller-supplied labels
/// (tenant names, abort messages) that may contain quotes or backslashes.
void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

void append_int(std::string& out, long v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%ld", v);
  out += buf;
}

}  // namespace

std::string job_record_json(const JobRecord& rec) {
  std::string out;
  out.reserve(384);
  out += "{\"type\":\"scf_job\",\"job\":";
  append_int(out, rec.job_id);
  out += ",\"tenant\":";
  append_escaped(out, rec.tenant);
  out += ",\"molecule\":";
  append_escaped(out, rec.molecule);
  out += ",\"basis\":";
  append_escaped(out, rec.basis);
  out += ",\"algorithm\":";
  append_escaped(out, rec.algorithm);
  out += ",\"nranks\":";
  append_int(out, rec.nranks);
  out += ",\"nthreads\":";
  append_int(out, rec.nthreads);
  out += ",\"priority\":";
  append_int(out, rec.priority);
  out += ",\"world\":";
  append_int(out, rec.world_id);
  out += ",\"outcome\":\"";
  out += job_outcome_name(rec.outcome);
  out += "\",\"reject_reason\":";
  append_escaped(out, rec.reject_reason);
  out += ",\"submit_seconds\":";
  append_double(out, rec.submit_seconds);
  out += ",\"queue_wait_seconds\":";
  append_double(out, rec.queue_wait_seconds);
  out += ",\"run_seconds\":";
  append_double(out, rec.run_seconds);
  out += ",\"queue_depth_at_admission\":";
  append_size(out, rec.queue_depth_at_admission);
  out += ",\"setup_cache_hit\":";
  out += rec.setup_cache_hit ? "true" : "false";
  out += ",\"density_cache_hit\":";
  out += rec.density_cache_hit ? "true" : "false";
  out += ",\"energy\":";
  append_double(out, rec.energy);
  out += ",\"iterations\":";
  append_int(out, rec.iterations);
  out += "}";
  return out;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double pos =
      clamped / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

ProfileSession::ProfileSession(const std::string& base_path)
    : metrics_path_(base_path + ".metrics.jsonl"),
      trace_path_(base_path + ".trace.json"),
      prev_trace_(trace_enabled()),
      prev_metrics_(metrics_enabled()) {
  out_ = std::make_unique<std::ofstream>(metrics_path_, std::ios::trunc);
  MC_CHECK(static_cast<bool>(*out_),
           "cannot open profile metrics file: " + metrics_path_);
  set_trace_enabled(true);
  set_metrics_enabled(true);
  reset_trace();
  reset_metrics();
}

ProfileSession::~ProfileSession() {
  out_->flush();
  write_chrome_trace_file(trace_path_);
  set_trace_enabled(prev_trace_);
  set_metrics_enabled(prev_metrics_);
}

void ProfileSession::write_iteration(const IterationRecord& rec) {
  *out_ << iteration_json(rec) << "\n";
  out_->flush();
}

}  // namespace mc::obs
