// Long-haul fault-injected soak driver (DESIGN.md section 14).
//
//   fuzz_soak [--jobs N] [--seed S] [--replay JOB_SEED] [--replay-env]
//             [--jsonl PATH] [--max-ranks R] [--fault-percent P] [--serve]
//
// Each job runs one randomized SCF (random molecule, per-atom mixed
// basis, charge, algorithm, rank/thread counts, incremental policy)
// through run_parallel_scf, under a randomized MC_FAULT_* plan about
// --fault-percent of the time (window verbs and delay mode included).
// With --serve the job goes through the SCF job server's submit path
// instead (admission -> queue -> pooled world -> run_parallel_scf), the
// nightly serving-lane configuration: the fault plan is process-global,
// so the soak keeps exactly one job in flight for deterministic fault
// attribution, and an aborted job must come back as a clean kAborted
// outcome while the server keeps serving.
// Invariants asserted per job:
//
//   * no fault armed, or delay-only fault -> the job completes cleanly
//     and its final energy matches an independent serial reference run
//     (no silent divergence, and one-sided completion timing must not
//     change results);
//   * hard fault armed -> either a clean mc::Error propagates from the
//     SPMD job (abort protocol worked) or the fault never triggered
//     (call_index past the op's call count), in which case the result
//     must again match the reference;
//   * never a hang: the binary runs under a ctest/CI timeout, so a stuck
//     barrier is a failure, not a wedged pipeline.
//
// Every failure prints the job seed and replay command
// (MC_FUZZ_SEED=<seed> ctest --test-dir build -R fuzz_soak_replay).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "basis/basis_set.hpp"
#include "core/parallel_scf.hpp"
#include "fuzz/fuzz_rng.hpp"
#include "fuzz/molecule_generator.hpp"
#include "ints/eri.hpp"
#include "ints/screening.hpp"
#include "par/fault_injection.hpp"
#include "scf/scf_driver.hpp"
#include "scf/serial_fock.hpp"
#include "serve/server.hpp"

namespace {

constexpr int kSkipExitCode = 77;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--jobs N] [--seed S] [--replay JOB_SEED] [--replay-env]\n"
      "          [--jsonl PATH] [--max-ranks R] [--fault-percent P] "
      "[--serve]\n",
      argv0);
  return 2;
}

struct JobConfig {
  mc::core::ParallelScfConfig scf;
  mc::par::FaultPlan fault;
};

/// Draw the run configuration for one job (everything except the molecule,
/// which the shared MoleculeGenerator owns).
JobConfig draw_job(const mc::fuzz::FuzzSample& sample, std::uint64_t job_seed,
                   int max_ranks, int fault_percent) {
  mc::fuzz::Rng r(mc::fuzz::derive_seed(job_seed, 0x50AC));
  JobConfig job;
  const std::array<mc::core::ScfAlgorithm, 4> algs = {
      mc::core::ScfAlgorithm::kMpiOnly, mc::core::ScfAlgorithm::kPrivateFock,
      mc::core::ScfAlgorithm::kSharedFock, mc::core::ScfAlgorithm::kDistFock};
  job.scf.algorithm = algs[r.below(algs.size())];
  job.scf.nranks =
      1 + static_cast<int>(r.below(static_cast<std::uint64_t>(max_ranks)));
  job.scf.nthreads = 1 + static_cast<int>(r.below(3));
  // Per-atom assignment straight from the generator: uniform samples are
  // the all-same vector, mixed samples exercise build_mixed end to end.
  job.scf.basis_per_atom = sample.basis_per_atom;
  job.scf.basis = sample.basis_per_atom.front();
  job.scf.schwarz_threshold = sample.schwarz_threshold;
  job.scf.scf.charge = sample.charge;
  job.scf.scf.max_iterations = 25;
  job.scf.scf.density_tolerance = 1e-7;
  job.scf.scf.incremental_fock = r.chance(2, 3);
  job.scf.scf.use_diis = r.chance(9, 10);
  // Discarded draws, once dist-fock's tuning options: they keep the stream
  // aligned so a fixed seed replays the same job configuration.
  for (const std::uint64_t n : {4u, 4u, 2u}) (void)r.below(n);

  if (r.chance(static_cast<std::uint64_t>(fault_percent), 100)) {
    job.fault = mc::par::random_fault_plan(r.next(), job.scf.nranks);
  }
  return job;
}

struct JobResult {
  std::string outcome;  // converged|unconverged|aborted|untriggered
  double energy = 0.0;
  double ref_energy = 0.0;
  int iterations = 0;
  std::vector<std::string> failures;
};

/// Independent single-process reference: serial builder, same molecule,
/// per-atom basis assignment, threshold, and SCF options.
mc::scf::ScfResult reference_run(const mc::fuzz::FuzzSample& sample,
                                 const JobConfig& job) {
  const mc::basis::BasisSet bs =
      mc::basis::BasisSet::build_mixed(sample.mol, sample.basis_per_atom);
  const mc::ints::EriEngine eri(bs);
  const mc::ints::Screening screen(eri, job.scf.schwarz_threshold);
  mc::scf::SerialFockBuilder builder(eri, screen);
  return mc::scf::run_scf(sample.mol, bs, builder, job.scf.scf);
}

/// Replay one job through the server's submit path. The caller keeps the
/// server alive across jobs (warm caches and worlds persist, as in
/// production serving) but submits one job at a time so the process-global
/// fault plan is attributable to exactly this job.
void run_served(mc::serve::ScfJobServer& server,
                const mc::fuzz::FuzzSample& sample, const JobConfig& job,
                bool& aborted, std::string& abort_what,
                mc::core::ParallelScfResult& par, JobResult& res) {
  mc::serve::JobSpec spec;
  spec.molecule_label = sample.describe();
  spec.mol = sample.mol;
  spec.basis = job.scf.basis;
  spec.basis_per_atom = job.scf.basis_per_atom;
  spec.charge = sample.charge;
  spec.algorithm = job.scf.algorithm;
  spec.nranks = job.scf.nranks;
  spec.nthreads = job.scf.nthreads;
  spec.schwarz_threshold = job.scf.schwarz_threshold;
  spec.scf = job.scf.scf;
  const mc::serve::SubmitResult sub = server.submit(spec);
  if (!sub.accepted) {
    // The generator only emits servable specs; a rejection is a bug.
    res.failures.push_back("server rejected soak job: " + sub.reason);
    aborted = true;
    abort_what = sub.reason;
    return;
  }
  const mc::serve::JobOutcome out = server.wait(sub.job_id);
  if (out.outcome == mc::obs::JobOutcomeKind::kAborted) {
    aborted = true;
    abort_what = out.error;
    return;
  }
  par.scf.converged = out.outcome == mc::obs::JobOutcomeKind::kConverged;
  par.scf.energy = out.energy;
  par.scf.iterations = out.iterations;
}

JobResult run_job(const mc::fuzz::FuzzSample& sample, const JobConfig& job,
                  mc::serve::ScfJobServer* server) {
  JobResult res;
  const bool hard_fault = job.fault.enabled() && job.fault.delay_ms == 0;
  mc::par::set_fault_plan(job.fault);
  bool aborted = false;
  std::string abort_what;
  mc::core::ParallelScfResult par;
  if (server != nullptr) {
    run_served(*server, sample, job, aborted, abort_what, par, res);
  } else {
    try {
      par = mc::core::run_parallel_scf(sample.mol, job.scf);
    } catch (const std::exception& e) {
      aborted = true;
      abort_what = e.what();
    }
  }
  mc::par::clear_fault_plan();

  if (aborted) {
    res.outcome = "aborted";
    if (!hard_fault) {
      res.failures.push_back(
          "job aborted with no hard fault armed: " + abort_what);
    }
    // A hard-fault abort is the protocol working: mc::Error propagated out
    // of the SPMD job instead of a hang or corruption. Nothing to compare.
    return res;
  }

  res.outcome = par.scf.converged ? "converged" : "unconverged";
  if (hard_fault) res.outcome = "untriggered";
  res.energy = par.scf.energy;
  res.iterations = par.scf.iterations;

  // The job completed (no fault, delay fault, or untriggered hard fault):
  // its answer must match the serial reference -- the silent-divergence
  // check. Matching convergence flags demand tight energy agreement; a
  // flag that flipped across the tolerance boundary still has to land
  // within a gross bound.
  try {
    const mc::scf::ScfResult ref = reference_run(sample, job);
    res.ref_energy = ref.energy;
    const double gap = std::abs(par.scf.energy - ref.energy);
    const double scale = std::max(1.0, std::abs(ref.energy));
    if (ref.converged == par.scf.converged) {
      if (gap > 1e-6 * scale) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "energy diverged from serial reference: %.12f vs "
                      "%.12f (gap %.3e)",
                      par.scf.energy, ref.energy, gap);
        res.failures.push_back(buf);
      }
    } else if (gap > 1e-4 * scale) {
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "convergence flags disagree (parallel %s, serial %s) "
                    "with gross energy gap %.3e",
                    par.scf.converged ? "converged" : "unconverged",
                    ref.converged ? "converged" : "unconverged", gap);
      res.failures.push_back(buf);
    }
  } catch (const std::exception& e) {
    res.failures.push_back(std::string("reference run threw: ") + e.what());
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t master_seed = 0x50414B4D43ULL;  // default fixed seed
  std::uint64_t replay_seed = 0;
  bool replay = false;
  bool replay_env = false;
  long jobs = 200;
  int max_ranks = 4;
  int fault_percent = 40;
  bool serve_mode = false;
  std::string jsonl_path;

  if (const char* env = std::getenv("MC_FUZZ_SEED")) {
    if (!mc::fuzz::parse_seed(env, master_seed)) {
      std::fprintf(stderr, "bad MC_FUZZ_SEED '%s'\n", env);
      return 2;
    }
  }
  for (int a = 1; a < argc; ++a) {
    const char* arg = argv[a];
    auto next = [&]() -> const char* {
      return (a + 1 < argc) ? argv[++a] : nullptr;
    };
    if (std::strcmp(arg, "--jobs") == 0) {
      const char* v = next();
      if (v == nullptr || (jobs = std::strtol(v, nullptr, 10)) < 1) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--seed") == 0) {
      const char* v = next();
      if (v == nullptr || !mc::fuzz::parse_seed(v, master_seed)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--replay") == 0) {
      const char* v = next();
      if (v == nullptr || !mc::fuzz::parse_seed(v, replay_seed)) {
        return usage(argv[0]);
      }
      replay = true;
    } else if (std::strcmp(arg, "--replay-env") == 0) {
      replay_env = true;
    } else if (std::strcmp(arg, "--jsonl") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      jsonl_path = v;
    } else if (std::strcmp(arg, "--max-ranks") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      max_ranks = static_cast<int>(std::strtol(v, nullptr, 10));
      if (max_ranks < 1) return usage(argv[0]);
    } else if (std::strcmp(arg, "--fault-percent") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      fault_percent = static_cast<int>(std::strtol(v, nullptr, 10));
      if (fault_percent < 0 || fault_percent > 100) return usage(argv[0]);
    } else if (std::strcmp(arg, "--serve") == 0) {
      serve_mode = true;
    } else {
      return usage(argv[0]);
    }
  }

  if (replay_env) {
    const char* env = std::getenv("MC_FUZZ_SEED");
    if (env == nullptr) {
      std::fprintf(stderr,
                   "fuzz_soak_replay: MC_FUZZ_SEED unset, nothing to "
                   "replay (skip)\n");
      return kSkipExitCode;
    }
    if (!mc::fuzz::parse_seed(env, replay_seed)) {
      std::fprintf(stderr, "bad MC_FUZZ_SEED '%s'\n", env);
      return 2;
    }
    replay = true;
    // Replay a serve-mode failure through the serve path (the replay
    // command a serve-mode soak prints sets this variable).
    if (std::getenv("MC_FUZZ_SERVE") != nullptr) serve_mode = true;
  }

  // Mixed per-atom bases flow through run_parallel_scf's basis_per_atom
  // entry point; samples stay modest-sized because the soak owns volume
  // and fault plans, not cost-heavy corners.
  mc::fuzz::GeneratorOptions gopt;
  gopt.mixed_basis = true;
  gopt.max_nbf = 40;
  const mc::fuzz::MoleculeGenerator gen(gopt);

  // Serve mode: one long-lived server for the whole soak (warm caches and
  // pool worlds persist across jobs) submitted to one job at a time so
  // every armed fault is attributable to the in-flight job.
  std::unique_ptr<mc::serve::ScfJobServer> server;
  if (serve_mode) {
    mc::serve::ServerOptions sopt;
    sopt.nworlds = 2;  // idle second world: shutdown must still be clean
    server = std::make_unique<mc::serve::ScfJobServer>(sopt);
  }

  std::ofstream jsonl;
  if (!jsonl_path.empty()) {
    jsonl.open(jsonl_path);
    if (!jsonl) {
      std::fprintf(stderr, "cannot open %s\n", jsonl_path.c_str());
      return 2;
    }
  }

  long failed = 0;
  const long total = replay ? 1 : jobs;
  for (long j = 0; j < total; ++j) {
    const std::uint64_t job_seed =
        replay ? replay_seed
               : mc::fuzz::derive_seed(master_seed,
                                       static_cast<std::uint64_t>(j));
    JobResult res;
    std::string describe;
    std::string fault_desc;
    try {
      const mc::fuzz::FuzzSample sample = gen.from_seed(job_seed);
      const JobConfig job =
          draw_job(sample, job_seed, max_ranks, fault_percent);
      describe = sample.describe() + " alg=" +
                 mc::core::algorithm_name(job.scf.algorithm) + " ranks=" +
                 std::to_string(job.scf.nranks) + " threads=" +
                 std::to_string(job.scf.nthreads);
      fault_desc = mc::par::fault_plan_env_string(job.fault);
      if (!fault_desc.empty()) describe += " fault{" + fault_desc + "}";
      res = run_job(sample, job, server.get());
    } catch (const std::exception& e) {
      res.failures.push_back(std::string("job setup threw: ") + e.what());
    }

    if (jsonl.is_open()) {
      jsonl << "{\"job\":" << j << ",\"seed\":\""
            << mc::fuzz::format_seed(job_seed) << "\",\"outcome\":\""
            << res.outcome << "\",\"fault\":\"" << fault_desc
            << "\",\"energy\":" << res.energy << ",\"ref_energy\":"
            << res.ref_energy << ",\"iterations\":" << res.iterations
            << ",\"ok\":" << (res.failures.empty() ? "true" : "false")
            << "}\n";
    }
    if (!res.failures.empty()) {
      ++failed;
      std::fprintf(stderr, "FAIL job %ld %s\n", j, describe.c_str());
      for (const std::string& f : res.failures) {
        std::fprintf(stderr, "  %s\n", f.c_str());
      }
      std::fprintf(stderr,
                   "  replay: %sMC_FUZZ_SEED=%s ctest --test-dir build -R "
                   "fuzz_soak_replay\n",
                   serve_mode ? "MC_FUZZ_SERVE=1 " : "",
                   mc::fuzz::format_seed(job_seed).c_str());
    } else if ((j + 1) % 50 == 0 || replay) {
      std::printf("job %ld/%ld ok (%s)\n", j + 1, total,
                  res.outcome.c_str());
    }
  }

  if (server != nullptr) {
    const mc::serve::ServerSummary s = server->shutdown();
    std::printf(
        "serve-mode summary: %ld submitted (%ld converged, %ld unconverged, "
        "%ld aborted), setup cache %ld/%ld hits, density cache %ld/%ld "
        "hits\n",
        s.submitted, s.converged, s.unconverged, s.aborted,
        s.setup_cache_hits, s.setup_cache_hits + s.setup_cache_misses,
        s.density_cache_hits, s.density_cache_hits + s.density_cache_misses);
  }
  std::printf("%ld/%ld soak jobs passed (master seed %s)\n", total - failed,
              total, mc::fuzz::format_seed(master_seed).c_str());
  return failed == 0 ? 0 : 1;
}
