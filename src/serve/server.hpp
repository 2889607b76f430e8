#pragma once
// The multi-tenant SCF job server (DESIGN.md section 15): a long-lived
// object that accepts concurrent SCF jobs through a bounded priority
// queue (serve/job_queue.hpp), dispatches them onto a pool of minimpi
// worlds (par/world_pool.hpp) so several Fock builds run side by side,
// and layers warm caches (serve/warm_cache.hpp) so repeat
// (molecule, basis) requests reuse the Schwarz/pair-list setup and are
// seeded from previously converged densities.
//
// Threading model: submit() is callable from any number of client
// threads; jobs run on the pool's world threads (each world is itself an
// SPMD team of `nranks` rank threads); wait() blocks the caller until
// the given job reaches a terminal state. shutdown() is graceful --
// admitted jobs drain, new submissions are rejected -- and idempotent.
//
// Every job, accepted or rejected, produces exactly one obs::JobRecord:
// appended to the in-memory log, streamed as a JSON line to
// `telemetry_path` when set, and folded into the shutdown summary.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "par/world_pool.hpp"
#include "serve/job.hpp"
#include "serve/job_queue.hpp"
#include "serve/warm_cache.hpp"

namespace mc::serve {

struct ServerOptions {
  /// Pooled minimpi worlds = jobs that may run concurrently. Total rank
  /// threads in flight is bounded by nworlds * max per-job nranks.
  int nworlds = 2;
  /// Jobs waiting beyond this are rejected at admission.
  std::size_t max_queue_depth = 64;
  /// Per-tenant ceiling on waiting jobs (0 = no per-tenant cap).
  std::size_t max_pending_per_tenant = 0;
  /// LRU capacities; 0 disables the respective cache. Repeat requests
  /// start from cached converged densities; with no density cache every
  /// job starts, like a cold one, from the SCF's atomic start
  /// (scf::atomic_guess_density) and still reuses the setup cache.
  std::size_t setup_cache_capacity = 16;
  std::size_t density_cache_capacity = 32;
  /// When non-empty, one obs::JobRecord JSON line per terminal job is
  /// appended here (the CI serving lane's artifact).
  std::string telemetry_path;
};

/// Aggregates over every terminal record, computed at shutdown.
struct ServerSummary {
  long submitted = 0;  ///< accepted + rejected
  long accepted = 0;
  long rejected = 0;
  long converged = 0;
  long unconverged = 0;
  long aborted = 0;
  /// Latency percentiles over jobs that ran (rejected jobs excluded).
  double queue_wait_p50_seconds = 0.0;
  double queue_wait_p95_seconds = 0.0;
  double run_p50_seconds = 0.0;
  double run_p95_seconds = 0.0;
  long setup_cache_hits = 0;
  long setup_cache_misses = 0;
  long density_cache_hits = 0;
  long density_cache_misses = 0;
};

class ScfJobServer {
 public:
  /// Starts the world pool immediately; the server is accepting jobs as
  /// soon as the constructor returns.
  explicit ScfJobServer(ServerOptions options = {});
  /// Shuts down gracefully if shutdown() was not called.
  ~ScfJobServer();
  ScfJobServer(const ScfJobServer&) = delete;
  ScfJobServer& operator=(const ScfJobServer&) = delete;

  /// Validate + admission-control `spec`. Synchronous and non-blocking:
  /// the verdict (and a job id, even for rejections) comes back
  /// immediately; the work happens on a pool world. Thread-safe.
  SubmitResult submit(JobSpec spec);

  /// Block until `job_id` reaches a terminal state and return its
  /// outcome. Rejected ids return immediately. Unknown ids throw.
  JobOutcome wait(long job_id);

  /// Graceful shutdown: stop admitting, drain admitted jobs, join the
  /// pool, compute the summary. Idempotent -- later calls return the
  /// same summary.
  ServerSummary shutdown();

  [[nodiscard]] std::size_t queue_depth() const { return queue_.depth(); }
  /// Worlds that ran at least one job (valid after shutdown).
  [[nodiscard]] int worlds_used() const;
  /// Snapshot of every terminal record so far (telemetry order).
  [[nodiscard]] std::vector<obs::JobRecord> records() const;
  [[nodiscard]] const ServerOptions& options() const { return opt_; }
  [[nodiscard]] long setup_cache_hits() const { return setup_cache_.hits(); }
  [[nodiscard]] long density_cache_hits() const {
    return density_cache_.hits();
  }

 private:
  [[nodiscard]] double now_seconds() const;
  /// Spec validation before admission; empty string = valid.
  [[nodiscard]] static std::string validate(const JobSpec& spec);
  /// Runs one admitted job on pool world `world` (never throws).
  void run_one(QueuedJob job, int world);
  /// Record a terminal state: log + telemetry line + wake waiters.
  void finish(const obs::JobRecord& rec, JobOutcome outcome);
  /// Fold records_ into a summary; caller holds mu_.
  [[nodiscard]] ServerSummary summarize_locked() const;

  ServerOptions opt_;
  std::chrono::steady_clock::time_point start_;
  JobQueue queue_;
  SetupCache setup_cache_;
  DensityCache density_cache_;

  mutable std::mutex mu_;  // guards everything below
  std::condition_variable done_cv_;
  std::unique_ptr<std::ofstream> telemetry_;
  std::map<long, JobOutcome> done_;
  std::vector<obs::JobRecord> records_;
  long next_id_ = 0;
  bool shut_down_ = false;
  ServerSummary summary_;
  std::once_flag shutdown_once_;  // serializes the close+join sequence

  /// Last member: its world threads start pulling in the constructor and
  /// must be joined before anything above is destroyed.
  std::unique_ptr<par::WorldPool> pool_;
};

}  // namespace mc::serve
