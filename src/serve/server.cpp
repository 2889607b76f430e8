#include "serve/server.hpp"

#include <omp.h>

#include <exception>
#include <utility>

#include "common/error.hpp"
#include "core/memory_model.hpp"
#include "core/parallel_scf.hpp"

namespace mc::serve {

ScfJobServer::ScfJobServer(ServerOptions options)
    : opt_(std::move(options)),
      start_(std::chrono::steady_clock::now()),
      queue_(opt_.max_queue_depth, opt_.max_pending_per_tenant),
      setup_cache_(opt_.setup_cache_capacity),
      density_cache_(opt_.density_cache_capacity) {
  MC_CHECK(opt_.nworlds >= 1, "ScfJobServer needs at least one world");
  if (!opt_.telemetry_path.empty()) {
    telemetry_ = std::make_unique<std::ofstream>(opt_.telemetry_path,
                                                 std::ios::trunc);
    MC_CHECK(telemetry_->good(), "ScfJobServer: cannot open telemetry path '" +
                                     opt_.telemetry_path + "'");
  }
  pool_ = std::make_unique<par::WorldPool>(
      opt_.nworlds, [this](int world) -> par::PooledTask {
        QueuedJob job;
        if (!queue_.pop(job)) return {};  // closed and drained
        return [this, j = std::move(job), world]() mutable {
          run_one(std::move(j), world);
        };
      });
}

ScfJobServer::~ScfJobServer() { shutdown(); }

double ScfJobServer::now_seconds() const {
  const auto dt = std::chrono::steady_clock::now() - start_;
  return std::chrono::duration<double>(dt).count();
}

std::string ScfJobServer::validate(const JobSpec& spec) {
  if (spec.mol.natoms() == 0) return "molecule has no atoms";
  if (spec.nranks < 1) return "nranks must be >= 1";
  if (spec.nthreads < 1) return "nthreads must be >= 1";
  if (!spec.basis_per_atom.empty() &&
      spec.basis_per_atom.size() != spec.mol.natoms()) {
    return "basis_per_atom size " + std::to_string(spec.basis_per_atom.size()) +
           " does not match natoms " + std::to_string(spec.mol.natoms());
  }
  const int nelec = spec.mol.nelectrons(spec.charge);
  if (nelec <= 0 || nelec % 2 != 0) {
    return "closed-shell RHF needs a positive even electron count (got " +
           std::to_string(nelec) + ")";
  }
  if (!spec.scf.profile_path.empty()) {
    return "profiled jobs are not servable (the profile session is global)";
  }
  return {};
}

SubmitResult ScfJobServer::submit(JobSpec spec) {
  SubmitResult res;

  obs::JobRecord rec;
  rec.tenant = spec.tenant;
  rec.molecule = spec.label();
  rec.basis = spec.basis_label();
  rec.algorithm = core::algorithm_name(spec.algorithm);
  rec.nranks = spec.nranks;
  rec.nthreads = spec.nthreads;
  rec.priority = spec.priority;
  rec.submit_seconds = now_seconds();

  {
    std::lock_guard<std::mutex> lk(mu_);
    res.job_id = next_id_++;
  }
  rec.job_id = res.job_id;

  std::string why = validate(spec);
  if (why.empty()) {
    QueuedJob job;
    job.id = res.job_id;
    job.spec = std::move(spec);
    job.admitted_seconds = rec.submit_seconds;
    const JobQueue::Admit admit = queue_.push(std::move(job));
    res.queue_depth = admit.depth;
    if (admit.accepted) {
      res.accepted = true;
      return res;  // the terminal record is written by run_one
    }
    why = admit.reason;
  }

  // Rejected (validation or admission): terminal immediately.
  res.reason = why;
  rec.outcome = obs::JobOutcomeKind::kRejected;
  rec.reject_reason = why;
  rec.queue_depth_at_admission = res.queue_depth;
  JobOutcome out;
  out.job_id = res.job_id;
  out.outcome = obs::JobOutcomeKind::kRejected;
  out.error = why;
  finish(rec, std::move(out));
  return res;
}

void ScfJobServer::run_one(QueuedJob job, int world) {
  const double dispatched = now_seconds();
  const JobSpec& spec = job.spec;

  obs::JobRecord rec;
  rec.job_id = job.id;
  rec.tenant = spec.tenant;
  rec.molecule = spec.label();
  rec.basis = spec.basis_label();
  rec.algorithm = core::algorithm_name(spec.algorithm);
  rec.nranks = spec.nranks;
  rec.nthreads = spec.nthreads;
  rec.priority = spec.priority;
  rec.world_id = world;
  rec.submit_seconds = job.admitted_seconds;
  rec.queue_wait_seconds = dispatched - job.admitted_seconds;
  rec.queue_depth_at_admission = job.depth_at_admission;

  JobOutcome out;
  out.job_id = job.id;
  out.queue_wait_seconds = rec.queue_wait_seconds;

  // Warm caches. The setup is keyed by (geometry bits, basis assignment,
  // Schwarz threshold); the density seed additionally by charge.
  const std::uint64_t setup_key = setup_fingerprint(
      spec.mol, spec.basis, spec.basis_per_atom, spec.schwarz_threshold);
  core::ParallelScfContext ctx;
  ctx.exclusive = false;  // concurrent jobs share the process-global trackers

  std::shared_ptr<const ScfSetup> setup = setup_cache_.get(setup_key);
  rec.setup_cache_hit = setup != nullptr;
  try {
    if (setup == nullptr) {
      // The world thread lives as long as the server: size its OpenMP
      // team to the job's builder first, as run_parallel_scf does on its
      // ranks, or the Screening sweep forks one thread per CPU that idles
      // from then on.
      omp_set_num_threads(core::builder_threads(spec.algorithm, spec.nthreads));
      setup = std::make_shared<const ScfSetup>(build_setup(
          spec.mol, spec.basis, spec.basis_per_atom, spec.schwarz_threshold));
      setup_cache_.put(setup_key, setup);
    }
    ctx.basis_set = setup->basis_set;
    ctx.eri = setup->eri;
    ctx.screening = setup->screening;

    const std::uint64_t density_key =
        density_fingerprint(setup_key, spec.charge);
    const std::shared_ptr<const DensitySeed> seed =
        density_cache_.get(density_key);
    if (seed != nullptr) {
      ctx.seed_density =
          std::shared_ptr<const la::Matrix>(seed, &seed->density);
    }
    rec.density_cache_hit = seed != nullptr;

    core::ParallelScfConfig config;
    config.algorithm = spec.algorithm;
    config.nranks = spec.nranks;
    config.nthreads = spec.nthreads;
    config.basis = spec.basis;
    config.basis_per_atom = spec.basis_per_atom;
    config.schwarz_threshold = spec.schwarz_threshold;
    config.scf = spec.scf;
    config.scf.charge = spec.charge;  // the spec field is authoritative

    core::ParallelScfResult result = run_parallel_scf(spec.mol, config, ctx);

    rec.energy = result.scf.energy;
    rec.iterations = result.scf.iterations;
    rec.outcome = result.scf.converged ? obs::JobOutcomeKind::kConverged
                                       : obs::JobOutcomeKind::kUnconverged;
    if (result.scf.converged) {
      auto produced = std::make_shared<DensitySeed>();
      produced->density = std::move(result.scf.density);
      produced->energy = result.scf.energy;
      produced->iterations = result.scf.iterations;
      density_cache_.put(density_key, std::move(produced));
    }
    out.energy = rec.energy;
    out.iterations = rec.iterations;
  } catch (const std::exception& e) {
    // A throwing job (bad basis name, injected fault, ...) must not take
    // the world thread down with it: record the abort and keep serving.
    rec.outcome = obs::JobOutcomeKind::kAborted;
    rec.reject_reason = e.what();
    out.error = e.what();
  } catch (...) {
    rec.outcome = obs::JobOutcomeKind::kAborted;
    rec.reject_reason = "unknown exception";
    out.error = "unknown exception";
  }
  out.outcome = rec.outcome;
  out.setup_cache_hit = rec.setup_cache_hit;
  out.density_cache_hit = rec.density_cache_hit;
  rec.run_seconds = now_seconds() - dispatched;
  out.run_seconds = rec.run_seconds;
  finish(rec, std::move(out));
}

void ScfJobServer::finish(const obs::JobRecord& rec, JobOutcome outcome) {
  std::lock_guard<std::mutex> lk(mu_);
  records_.push_back(rec);
  if (telemetry_ != nullptr) {
    (*telemetry_) << obs::job_record_json(rec) << '\n';
    telemetry_->flush();  // every terminal job is immediately durable
  }
  done_[rec.job_id] = std::move(outcome);
  done_cv_.notify_all();
}

JobOutcome ScfJobServer::wait(long job_id) {
  std::unique_lock<std::mutex> lk(mu_);
  MC_CHECK(job_id >= 0 && job_id < next_id_,
           "wait: unknown job id " + std::to_string(job_id));
  done_cv_.wait(lk, [&] { return done_.count(job_id) != 0; });
  return done_.at(job_id);
}

ServerSummary ScfJobServer::shutdown() {
  // call_once serializes concurrent shutdown() callers: late arrivals
  // block until the first finishes, then fall through to the summary.
  std::call_once(shutdown_once_, [this] {
    queue_.close();
    pool_->join();
    std::lock_guard<std::mutex> lk(mu_);
    shut_down_ = true;
    summary_ = summarize_locked();
  });
  std::lock_guard<std::mutex> lk(mu_);
  return summary_;
}

ServerSummary ScfJobServer::summarize_locked() const {
  ServerSummary s;
  std::vector<double> waits;
  std::vector<double> runs;
  for (const obs::JobRecord& r : records_) {
    ++s.submitted;
    switch (r.outcome) {
      case obs::JobOutcomeKind::kRejected:
        ++s.rejected;
        continue;
      case obs::JobOutcomeKind::kConverged:
        ++s.converged;
        break;
      case obs::JobOutcomeKind::kUnconverged:
        ++s.unconverged;
        break;
      case obs::JobOutcomeKind::kAborted:
        ++s.aborted;
        break;
    }
    ++s.accepted;
    waits.push_back(r.queue_wait_seconds);
    runs.push_back(r.run_seconds);
  }
  s.queue_wait_p50_seconds = obs::percentile(waits, 50.0);
  s.queue_wait_p95_seconds = obs::percentile(waits, 95.0);
  s.run_p50_seconds = obs::percentile(runs, 50.0);
  s.run_p95_seconds = obs::percentile(std::move(runs), 95.0);
  s.setup_cache_hits = setup_cache_.hits();
  s.setup_cache_misses = setup_cache_.misses();
  s.density_cache_hits = density_cache_.hits();
  s.density_cache_misses = density_cache_.misses();
  return s;
}

int ScfJobServer::worlds_used() const { return pool_->worlds_used(); }

std::vector<obs::JobRecord> ScfJobServer::records() const {
  std::lock_guard<std::mutex> lk(mu_);
  return records_;
}

}  // namespace mc::serve
