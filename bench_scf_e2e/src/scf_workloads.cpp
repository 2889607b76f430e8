// ethane-631gd and pentane-sto3g: whole cycles of cold SCFs over the four
// algorithms on the workload's fixed molecule, for the run's time budget.

#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "workload_runs.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace bench {
namespace {

/// Set-up samples taken up front, and before every cold SCF.
constexpr int kSetupSamples = 8;
constexpr int kSetupSamplesPerScf = 3;
/// Every reported SCF time is a median over at least this many repeats.
constexpr std::size_t kMinCycles = 3;

}  // namespace

void run_scf_workload(const RunOptions& opt, Report& report, Tally& tally) {
  const std::uint64_t t0 = now_ns();
  auto elapsed = [&] { return static_cast<double>(now_ns() - t0) * 1e-9; };
  ScopedSpan root("bench.workload." + opt.workload);

  const ScfWorkload w = scf_workload(opt.workload, opt.smoke);
  const double energy =
      std::isnan(w.energy) ? serial_energy(w.spec) : w.energy;
  warm_up(w.spec, opt.smoke ? 0.0 : 1.5);
  std::vector<SetupTimes> setup;
  for (int r = 0; r < (opt.smoke ? 1 : kSetupSamples); ++r) {
    setup.push_back(time_setup(w.spec));
  }

  if (opt.trace) {
    const SetupStats st = summarize_setup(setup);
    report_setup_layers(st.median_parts, report);
    probe_scf_layers(w.spec, energy, st.median_total_s, opt.smoke ? 1 : 3,
                     opt.out_dir + "/eri_cost_table-" + opt.workload + ".json",
                     report, tally);
    report_serve_absent(report);
    return;
  }

  // Whole cycles over the algorithms, rotating which goes first: at least
  // kMinCycles, more while the next cycle still fits the budget. None
  // starts after twice the budget, so a contended host yields fewer
  // repeats rather than a run that never ends. Set-up samples precede
  // every SCF, so set-up time is sampled across the whole run. Each cold
  // SCF is also one "job" of the jobs_per_s / job_p50_s / job_p95_s metrics.
  const auto& algs = algorithms();
  ScfSamples samples;
  std::vector<double> jobs;
  double last_cycle_s = 0.0;
  for (std::size_t cycle = 0;; ++cycle) {
    const double el = elapsed();
    const bool more = cycle < kMinCycles ? el < 2.0 * opt.seconds
                                         : el + last_cycle_s <= opt.seconds;
    if (cycle > 0 && (opt.smoke || !more)) break;
    for (std::size_t a = 0; a < algs.size(); ++a) {
      const AlgSpec& alg = algs[(a + cycle) % algs.size()];
      for (int r = 0; r < (opt.smoke ? 0 : kSetupSamplesPerScf); ++r) {
        setup.push_back(time_setup(w.spec));
      }
      const ColdRun run = run_cold(alg, w.spec);
      tally.check(energy_ok(run.result.scf, energy),
                  w.spec.label + ": " + alg.key + " SCF missed " +
                      std::to_string(energy));
      samples.add(alg, run);
      jobs.push_back(run.wall_s);
    }
    last_cycle_s = elapsed() - el;
  }

  report.set("setup_s", summarize_setup(setup).median_total_s, "s");
  std::fprintf(stderr, "%s: %zu cold SCFs, %zu set-up samples\n",
               opt.workload.c_str(), jobs.size(), setup.size());
  samples.report(report);
  report.set("jobs_per_s",
             static_cast<double>(jobs.size()) /
                 std::accumulate(jobs.begin(), jobs.end(), 0.0),
             "1/s");
  report.set("job_p50_s", median(jobs), "s");
  report.set("job_p95_s", mc::obs::percentile(jobs, 95.0), "s");
}

}  // namespace bench
