// serve-mix: three closed-loop clients (each submits, waits for the
// outcome, then submits the next job) against one ScfJobServer with two
// worlds of two ranks. Repeat jobs hit the warm setup and density caches;
// every fourth submission is a seeded geometry jitter that misses both.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "workload_runs.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace bench {
namespace {

constexpr int kClients = 3;
constexpr int kWorlds = 2;
/// Enough submissions that p95 has ten samples beyond it.
constexpr std::size_t kMinJobs = 200;
constexpr std::size_t kMaxJobs = 20000;
/// Catalogue set-up sweeps taken up front; one more precedes every cold SCF.
constexpr int kSetupSweeps = 12;
/// Cold SCF cycles over the four algorithms: at least this many, more while
/// they fit an eighth of the budget.
constexpr std::size_t kMinScfCycles = 5;

struct JobResult {
  double latency_s = 0.0;
  bool repeat = true;
  bool ok = false;
  std::string why;
};

struct LoopStats {
  std::vector<JobResult> jobs;
  double wall_s = 0.0;
  std::vector<mc::obs::JobRecord> records;  ///< closed-loop jobs only
};

/// Warm the server with one job per catalogue entry, then run the closed
/// loop until steady-clock time `deadline_ns` and at least `min_jobs`
/// submissions, but never past `hard_deadline_ns`.
LoopStats serve_loop(const ServeCatalogue& cat,
                     const std::vector<double>& ref_energy,
                     std::uint64_t seed, std::uint64_t deadline_ns,
                     std::uint64_t hard_deadline_ns, std::size_t min_jobs,
                     Tally& tally) {
  mc::serve::ServerOptions so;
  so.nworlds = kWorlds;
  mc::serve::ScfJobServer server(so);
  const std::vector<MoleculeSpec>& catalogue = cat.entries;

  {
    ScopedSpan warm("serve.warmup");
    for (std::size_t c = 0; c < catalogue.size(); ++c) {
      const mc::serve::SubmitResult sub =
          server.submit(serve_job_spec(catalogue[c]));
      const mc::serve::JobOutcome out = server.wait(sub.job_id);
      tally.check(sub.accepted &&
                      out.outcome == mc::obs::JobOutcomeKind::kConverged &&
                      std::abs(out.energy - ref_energy[c]) <= kEnergyTolerance,
                  "warm-up job " + catalogue[c].label + " failed");
    }
  }
  const long first_loop_id = static_cast<long>(catalogue.size());

  LoopStats st;
  std::mutex mu;  // guards st.jobs
  std::atomic<std::size_t> next{0};
  ScopedSpan loop("serve.closed_loop");
  const std::uint64_t loop_id = loop.id();
  auto client = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      const std::uint64_t now = now_ns();
      if (i >= kMaxJobs || now >= hard_deadline_ns ||
          (i >= min_jobs && now >= deadline_ns)) {
        return;
      }
      const GeneratedJob g = serve_job(seed, i, cat);
      JobResult r;
      r.repeat = g.repeat;
      ScopedSpan job("serve.job", loop_id, i + 1);
      try {
        mc::serve::SubmitResult sub;
        {
          ScopedSpan s("serve.submit");
          sub = server.submit(g.spec);
        }
        if (!sub.accepted) {
          r.why = "rejected: " + sub.reason;
        } else {
          mc::serve::JobOutcome out;
          {
            ScopedSpan s("serve.wait");
            out = server.wait(sub.job_id);
          }
          const bool converged =
              out.outcome == mc::obs::JobOutcomeKind::kConverged;
          const double ref = ref_energy[g.catalogue_index];
          r.ok = converged &&
                 (!g.repeat || std::abs(out.energy - ref) <= kEnergyTolerance);
          if (!r.ok) {
            r.why = g.spec.molecule_label + ": " +
                    (converged ? "energy differs from the direct run"
                               : std::string(mc::obs::job_outcome_name(
                                     out.outcome)) +
                                     " " + out.error);
          }
        }
      } catch (const std::exception& e) {
        r.why = e.what();
      }
      r.latency_s = job.stop();
      std::lock_guard<std::mutex> lk(mu);
      st.jobs.push_back(std::move(r));
    }
  };
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c) clients.emplace_back(client);
  }  // joined here
  st.wall_s = loop.stop();
  server.shutdown();
  for (const mc::obs::JobRecord& rec : server.records()) {
    if (rec.job_id >= first_loop_id) st.records.push_back(rec);
  }
  for (const JobResult& r : st.jobs) tally.check(r.ok, r.why);
  return st;
}

void report_serve_layers(const LoopStats& st, Report& report) {
  std::vector<double> waits;
  std::vector<double> runs;
  double setup_hits = 0.0;
  double density_hits = 0.0;
  double iterations = 0.0;
  for (const mc::obs::JobRecord& r : st.records) {
    waits.push_back(r.queue_wait_seconds);
    runs.push_back(r.run_seconds);
    setup_hits += r.setup_cache_hit ? 1.0 : 0.0;
    density_hits += r.density_cache_hit ? 1.0 : 0.0;
    iterations += r.iterations;
  }
  const double n = static_cast<double>(st.records.size());
  double repeats = 0.0;
  for (const JobResult& j : st.jobs) repeats += j.repeat ? 1.0 : 0.0;
  report.set("serve.jobs", n, "count");
  report.set("serve.queue_wait_p50_s", median(waits), "s");
  report.set("serve.queue_wait_p95_s", mc::obs::percentile(waits, 95.0), "s");
  report.set("serve.run_p50_s", median(runs), "s");
  report.set("serve.run_p95_s", mc::obs::percentile(runs, 95.0), "s");
  report.set("serve.setup_hit_ratio", n > 0 ? setup_hits / n : 0.0,
             "fraction");
  report.set("serve.density_hit_ratio", n > 0 ? density_hits / n : 0.0,
             "fraction");
  report.set("serve.mean_iterations", n > 0 ? iterations / n : 0.0, "count");
  report.set("serve.repeat_share",
             st.jobs.empty() ? 0.0
                             : repeats / static_cast<double>(st.jobs.size()),
             "fraction");
}

}  // namespace

void report_serve_absent(Report& report) {
  report_serve_layers(LoopStats{}, report);
}

void run_serve_workload(const RunOptions& opt, Report& report, Tally& tally) {
  const std::uint64_t t0 = now_ns();
  auto elapsed = [&] { return static_cast<double>(now_ns() - t0) * 1e-9; };
  ScopedSpan root("bench.workload." + opt.workload);
  // The closed loop runs until the end of the budget (smoke: its minimum
  // job count only), and on a contended host stops short of its minimum
  // job count at three times the budget rather than run on.
  const std::uint64_t budget_ns =
      static_cast<std::uint64_t>(opt.seconds * 1e9);
  const std::uint64_t deadline_ns = opt.smoke ? 0 : t0 + budget_ns;
  const std::uint64_t hard_deadline_ns = t0 + 3 * budget_ns;
  const ServeCatalogue cat = serve_catalogue(opt.smoke);
  const std::vector<MoleculeSpec>& catalogue = cat.entries;

  // Set-up of the whole catalogue (what the server pays on cold jobs) is
  // one sample; samples are taken up front and before every cold SCF.
  std::vector<SetupTimes> setup;
  auto setup_sweep = [&] {
    SetupTimes sum;
    for (const MoleculeSpec& spec : catalogue) {
      const SetupTimes t = time_setup(spec);
      sum.basis_s += t.basis_s;
      sum.eri_engine_s += t.eri_engine_s;
      sum.screening_s += t.screening_s;
      sum.one_electron_s += t.one_electron_s;
    }
    setup.push_back(sum);
  };
  for (int r = 0; r < (opt.smoke ? 1 : kSetupSweeps); ++r) setup_sweep();

  // One direct run_parallel_scf per catalogue entry, configured as the
  // server runs it: the energies repeat jobs must reproduce.
  std::vector<double> ref_energy;
  for (const MoleculeSpec& spec : catalogue) {
    ScopedSpan span("serve.direct_reference");
    const mc::serve::JobSpec job = serve_job_spec(spec);
    mc::core::ParallelScfConfig cfg;
    cfg.algorithm = job.algorithm;
    cfg.nranks = job.nranks;
    cfg.nthreads = job.nthreads;
    cfg.basis = job.basis;
    cfg.schwarz_threshold = job.schwarz_threshold;
    cfg.scf = job.scf;
    const mc::core::ParallelScfResult res =
        mc::core::run_parallel_scf(spec.mol, cfg);
    tally.check(res.scf.converged,
                spec.label + ": direct reference SCF did not converge");
    ref_energy.push_back(res.scf.energy);
  }
  const MoleculeSpec& ref_spec = catalogue.front();

  if (opt.trace) {
    report_setup_layers(summarize_setup(setup).median_parts, report);
    // scf.other_s subtracts the reference entry's own set-up.
    std::vector<SetupTimes> ref_setup;
    for (int r = 0; r < (opt.smoke ? 1 : 5); ++r) {
      ref_setup.push_back(time_setup(ref_spec));
    }
    probe_scf_layers(ref_spec, ref_energy.front(),
                     summarize_setup(ref_setup).median_total_s,
                     opt.smoke ? 1 : 3,
                     opt.out_dir + "/eri_cost_table-" + opt.workload + ".json",
                     report, tally);
    const LoopStats st =
        serve_loop(cat, ref_energy, opt.seed, deadline_ns,
                   hard_deadline_ns, opt.smoke ? 16 : kMinJobs, tally);
    report_serve_layers(st, report);
    return;
  }

  // scf_s / mem_mib on the reference spec, a small molecule whose cold SCF
  // is dominated by set-up and the first builds, as a cold job's is: cycles
  // over the four algorithms for an eighth of the budget (at least
  // kMinScfCycles, unless the whole budget is gone). The closed loop gets
  // the rest.
  ScfSamples samples;
  const auto& algs = algorithms();
  const double scf_budget = opt.seconds / 8.0;
  const double c0 = elapsed();
  for (std::size_t cycle = 0;; ++cycle) {
    if (opt.smoke ? cycle >= 1
                  : cycle >= kMinScfCycles
                        ? elapsed() - c0 > scf_budget
                        : cycle >= 1 && elapsed() > opt.seconds) {
      break;
    }
    for (std::size_t a = 0; a < algs.size(); ++a) {
      const AlgSpec& alg = algs[(a + cycle) % algs.size()];
      if (!opt.smoke) setup_sweep();
      const ColdRun run = run_cold(alg, ref_spec);
      tally.check(energy_ok(run.result.scf, ref_energy.front()),
                  ref_spec.label + ": " + alg.key +
                      " SCF differs from the direct reference");
      samples.add(alg, run);
    }
  }

  const LoopStats st =
      serve_loop(cat, ref_energy, opt.seed, deadline_ns,
                 hard_deadline_ns, opt.smoke ? 16 : kMinJobs, tally);
  std::vector<double> latency;
  for (const JobResult& j : st.jobs) latency.push_back(j.latency_s);

  report.set("setup_s", summarize_setup(setup).median_total_s, "s");
  samples.report(report);
  report.set("jobs_per_s", static_cast<double>(latency.size()) / st.wall_s,
             "1/s");
  report.set("job_p50_s", median(latency), "s");
  report.set("job_p95_s", mc::obs::percentile(latency, 95.0), "s");
  std::fprintf(stderr, "serve-mix: %zu closed-loop jobs in %.2f s (%d clients, "
               "%d worlds x 2 ranks), %zu cold SCFs, %zu set-up sweeps\n",
               latency.size(), st.wall_s, kClients, kWorlds,
               samples.count(), setup.size());
}

}  // namespace bench
