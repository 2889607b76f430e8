#pragma once
// Load-balance metrics (DESIGN.md section 10): per-rank accumulators for
// the time categories the paper's evaluation is built on -- DLB-counter
// wait, gsumf/allreduce, barrier, one-sided window traffic -- plus the
// per-iteration record the SCF drivers emit as machine-readable JSON
// lines when run with --profile (one record per SCF iteration, schema in
// DESIGN.md section 10.2, mapped to the paper's Tables 2-3 in
// EXPERIMENTS.md).
//
// Gating mirrors obs/trace.hpp: MC_OBS=0 collapses ScopedChannelTimer to
// an empty type; with MC_OBS=1 the timer costs one relaxed atomic load
// until metrics are enabled at runtime.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace mc::obs {

/// Communication/wait-time categories, accumulated per rank.
enum class Channel : int {
  kDlbWait = 0,   ///< time spent claiming from the shared DLB counter
  kGsum = 1,      ///< ddi_gsumf / allreduce (sum and max)
  kBarrier = 2,   ///< explicit barriers (and window fences)
  kPut = 3,       ///< one-sided ddi_put into a window
  kGet = 4,       ///< one-sided ddi_get from a window
  kAcc = 5,       ///< one-sided ddi_acc accumulate into a window
};
inline constexpr int kChannelCount = 6;

[[nodiscard]] bool metrics_enabled();
void set_metrics_enabled(bool on);
/// Zero every (channel, rank) accumulator.
void reset_metrics();

/// Accumulate `ns` into (channel, rank). rank < 0 = unattributed/serial.
void add_channel_ns(Channel c, int rank, std::uint64_t ns);
[[nodiscard]] std::uint64_t channel_ns(Channel c, int rank);
[[nodiscard]] double channel_seconds(Channel c, int rank);

/// RAII channel accumulation: adds the scope's duration to (c, rank).
/// `on = false` makes it inert (e.g. on every thread of a team but the one
/// that speaks for the rank).
class ScopedChannelTimerImpl {
 public:
  ScopedChannelTimerImpl(Channel c, int rank, bool on = true) {
    if (on && metrics_enabled()) {
      active_ = true;
      c_ = c;
      rank_ = rank;
      t0_ = monotonic_ns();
    }
  }
  ~ScopedChannelTimerImpl() {
    if (active_) add_channel_ns(c_, rank_, monotonic_ns() - t0_);
  }
  ScopedChannelTimerImpl(const ScopedChannelTimerImpl&) = delete;
  ScopedChannelTimerImpl& operator=(const ScopedChannelTimerImpl&) = delete;

 private:
  bool active_ = false;
  Channel c_ = Channel::kDlbWait;
  int rank_ = -1;
  std::uint64_t t0_ = 0;
};

struct ScopedChannelTimerNoop {
  ScopedChannelTimerNoop(Channel /*c*/, int /*rank*/, bool /*on*/ = true) {}
};

#if MC_OBS
using ScopedChannelTimer = ScopedChannelTimerImpl;
#else
using ScopedChannelTimer = ScopedChannelTimerNoop;
#endif

// ---------------------------------------------------------------------------
// Per-angular-class ERI batch statistics (DESIGN.md section 12.5): the
// batched pipeline groups quartets by (Lbra, Lket) = (l1+l2, l3+l4), and
// accumulates per class how many contracted quartets were digested, how
// many primitive quartets went through boys_batch, and the wall time spent
// in batch evaluation. Callers gate on metrics_enabled(); accumulation is
// relaxed-atomic like the channel table.

/// Largest tracked l1+l2 per side (engine supports l <= 4 per shell).
inline constexpr int kMaxEriClassL = 8;

struct EriClassStats {
  std::uint64_t quartets = 0;       ///< contracted shell quartets evaluated
  std::uint64_t boys_elements = 0;  ///< primitive quartets through boys_batch
  std::uint64_t ns = 0;             ///< wall time in batch evaluation
};

/// Accumulate one class-group evaluation. Out-of-range classes clamp to
/// the top slot. Thread-safe (relaxed atomics).
void add_eri_class(int lbra, int lket, std::uint64_t quartets,
                   std::uint64_t boys_elements, std::uint64_t ns);
[[nodiscard]] EriClassStats eri_class_stats(int lbra, int lket);
/// Sum over all classes (convenience for tests/reporting).
[[nodiscard]] EriClassStats eri_class_totals();

// ---------------------------------------------------------------------------
// Per-iteration metrics records (the --profile JSON-lines schema).

/// The counters of one Fock build on one rank, as the builder records them
/// (scf::FockBuilder::last_stats) and as the profile line carries them.
/// Every screened builder runs the same scf::QuartetCascade over the same
/// quartet set, so the rank-summed quartets and kills are equal across
/// algorithms and rank counts; only pairs_claimed counts each algorithm's
/// own task unit. Kills count C1 quartets in a symmetry-unique build too,
/// so quartets + symmetry_skipped + static_screened + density_screened is
/// the number of quartets a C1 build of the same density and context
/// classifies.
struct BuildStats {
  /// MPI-level tasks (bra pairs, or bra shells for private Fock) claimed.
  std::size_t pairs_claimed = 0;
  /// Quartets that survived the cascade and were computed.
  std::size_t quartets = 0;
  /// Quartets killed by the static Schwarz bound.
  std::size_t static_screened = 0;
  /// Quartets that passed the static bound but not the density bound.
  std::size_t density_screened = 0;
  /// Quartets that passed both bounds but were not computed because
  /// another member of their symmetry orbit carries them.
  std::size_t symmetry_skipped = 0;
  /// Order of the point group the build used: 1 in C1, also when the
  /// density was not invariant under the basis's group.
  int group_order = 1;
  /// Per-OpenMP-thread split of `quartets` (one entry when single-threaded).
  std::vector<std::size_t> thread_quartets;
  /// Distributed-builder tile-cache traffic (zero for the replicated
  /// algorithms): density-tile reads served from the rank-local cache vs
  /// fetched with ddi_get from the window.
  std::size_t tile_hits = 0;
  std::size_t tile_misses = 0;

  /// Fold one OpenMP thread's quartet counts into this rank's record;
  /// call once per thread, in thread order.
  void add_thread(const BuildStats& t) {
    quartets += t.quartets;
    static_screened += t.static_screened;
    density_screened += t.density_screened;
    symmetry_skipped += t.symmetry_skipped;
    thread_quartets.push_back(t.quartets);
  }
};

/// One rank's share of one SCF iteration's Fock build.
struct RankIterationMetrics {
  int rank = 0;
  BuildStats build;  ///< the builder's counters of this iteration's build
  double dlb_wait_seconds = 0.0;
  double gsum_seconds = 0.0;
  double barrier_seconds = 0.0;
  std::size_t peak_bytes = 0;      ///< MemoryTracker high-water mark
};

/// One SCF iteration, aggregated across ranks.
struct IterationRecord {
  std::string algorithm;
  int nranks = 1;
  int nthreads = 1;
  int iteration = 0;
  double energy = 0.0;
  double delta_energy = 0.0;
  double density_rms = 0.0;
  bool full_rebuild = true;
  double fock_seconds = 0.0;
  std::size_t quartets = 0;          ///< summed over ranks
  std::size_t static_screened = 0;   ///< summed over ranks
  std::size_t density_screened = 0;  ///< summed over ranks
  std::size_t symmetry_skipped = 0;  ///< summed over ranks
  /// Quartets a full build computes, predicted from the screening: the
  /// static survivors, one per symmetry orbit. Full-rebuild iterations of
  /// a symmetry-unique build compute exactly this many (0 = unknown).
  std::size_t screening_predicted_quartets = 0;
  /// Order of the point group the iteration's build used (1 = C1).
  int group_order = 1;
  std::vector<RankIterationMetrics> ranks;

  /// max/mean of per-rank quartet counts (1.0 = perfect balance).
  [[nodiscard]] double load_imbalance() const;
};

/// One record as a single JSON line (no trailing newline).
[[nodiscard]] std::string iteration_json(const IterationRecord& rec);

// ---------------------------------------------------------------------------
// Per-job serving telemetry (DESIGN.md section 15): the job server emits
// one JobRecord JSON line per terminal job -- accepted or rejected -- to
// its telemetry JSONL stream, and derives its shutdown summary (p50/p95
// queue-wait and run latency, outcome counts, cache hit rates) from the
// same records. This is the per-rank obs layer of PR 3 re-aimed at the
// serving dimension: the unit of attribution is the job, not the rank.

/// Terminal state of one job.
enum class JobOutcomeKind : int {
  kConverged = 0,
  kUnconverged = 1,
  kRejected = 2,   ///< refused at admission (never ran)
  kAborted = 3,    ///< threw mid-run (e.g. an injected fault)
};
[[nodiscard]] const char* job_outcome_name(JobOutcomeKind k);

/// One job's life, from admission decision to terminal state.
struct JobRecord {
  long job_id = 0;
  std::string tenant;
  std::string molecule;   ///< label only (e.g. "benzene", "graphene:8")
  std::string basis;
  std::string algorithm;
  int nranks = 1;
  int nthreads = 1;
  int priority = 0;
  int world_id = -1;      ///< pool world that ran it; -1 = never ran
  JobOutcomeKind outcome = JobOutcomeKind::kRejected;
  std::string reject_reason;  ///< admission refusal, or abort error text
  /// Seconds from server start to submission (a steady, server-local
  /// clock; JSONL consumers only ever difference these).
  double submit_seconds = 0.0;
  double queue_wait_seconds = 0.0;  ///< admission -> dispatch onto a world
  double run_seconds = 0.0;         ///< dispatch -> terminal
  std::size_t queue_depth_at_admission = 0;
  bool setup_cache_hit = false;    ///< Schwarz/pair-list setup reused
  bool density_cache_hit = false;  ///< warm-started from a cached density
  double energy = 0.0;
  int iterations = 0;
};

/// One record as a single JSON line (no trailing newline).
[[nodiscard]] std::string job_record_json(const JobRecord& rec);

/// The p-th percentile (0 <= p <= 100) by linear interpolation between
/// order statistics; 0 for an empty sample. Takes a copy: percentile
/// selection reorders the values.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// RAII profile session backing the SCF drivers' --profile=<base> flag:
/// enables tracing + metrics (restoring the previous flags on
/// destruction), resets both, streams iteration records to
/// <base>.metrics.jsonl, and writes <base>.trace.json at the end.
/// One session at a time -- construction resets the global accumulators.
class ProfileSession {
 public:
  explicit ProfileSession(const std::string& base_path);
  ~ProfileSession();
  ProfileSession(const ProfileSession&) = delete;
  ProfileSession& operator=(const ProfileSession&) = delete;

  void write_iteration(const IterationRecord& rec);

 private:
  std::string metrics_path_;
  std::string trace_path_;
  std::unique_ptr<std::ofstream> out_;
  bool prev_trace_ = false;
  bool prev_metrics_ = false;
};

}  // namespace mc::obs
