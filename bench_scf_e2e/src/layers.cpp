#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "basis/basis_set.hpp"
#include "common/error.hpp"
#include "core/fock_dist.hpp"
#include "core/fock_mpi.hpp"
#include "core/fock_private.hpp"
#include "core/fock_shared.hpp"
#include "ints/eri.hpp"
#include "ints/eri_batch.hpp"
#include "ints/one_electron.hpp"
#include "ints/screening.hpp"
#include "la/matrix.hpp"
#include "la/blas_lite.hpp"
#include "la/orthogonalizer.hpp"
#include "la/sym_eig.hpp"
#include "obs/metrics.hpp"
#include "par/ddi.hpp"
#include "par/runtime.hpp"
#include "scf/diis.hpp"
#include "scf/scf_driver.hpp"
#include "scf/serial_fock.hpp"
#include "spans.hpp"

namespace bench {
namespace {

namespace core = mc::core;
namespace la = mc::la;
namespace obs = mc::obs;
namespace par = mc::par;
namespace scf = mc::scf;

/// Highest pair angular momentum (l1 + l2) of the built-in bases: d+d.
constexpr int kMaxPairL = 4;
/// Untraced/traced mpi SCF pairs behind obs.overhead_frac.
constexpr int kOverheadPairs = 3;

/// The geometry-derived setup every rank of a cold SCF builds.
struct Setup {
  std::unique_ptr<mc::basis::BasisSet> bs;
  std::unique_ptr<mc::ints::EriEngine> eri;
  std::unique_ptr<mc::ints::Screening> screen;
  mc::la::Matrix s;  ///< overlap
  mc::la::Matrix h;  ///< core Hamiltonian
  mc::la::Matrix x;  ///< canonical orthogonalizer
};

/// Build the setup of `spec` once, timing each part.
Setup build_setup(const MoleculeSpec& spec, SetupTimes& times) {
  // Built on a fresh thread, as each rank of a cold SCF builds it. The
  // screening's OpenMP team then ends with that thread; left idle in this
  // process, libgomp would count it against the cores and throttle the
  // barrier spin-waits of every later team (shared Fock runs 2x slower).
  ScopedSpan outer("setup.build");
  const std::uint64_t parent = outer.id();
  const std::uint64_t run = outer.run();
  Setup su;
  std::exception_ptr error;
  std::jthread([&] {
    try {
      {
        ScopedSpan span("setup.basis", parent, run);
        su.bs = std::make_unique<mc::basis::BasisSet>(
            mc::basis::BasisSet::build(spec.mol, spec.basis));
        times.basis_s = span.stop();
      }
      const core::ParallelScfConfig defaults;
      {
        ScopedSpan span("setup.eri_engine", parent, run);
        su.eri = std::make_unique<mc::ints::EriEngine>(*su.bs);
        times.eri_engine_s = span.stop();
      }
      {
        ScopedSpan span("setup.screening", parent, run);
        su.screen = std::make_unique<mc::ints::Screening>(
            *su.eri, defaults.schwarz_threshold);
        times.screening_s = span.stop();
      }
      {
        ScopedSpan span("setup.one_electron", parent, run);
        su.s = mc::ints::overlap_matrix(*su.bs);
        su.h = mc::ints::core_hamiltonian(*su.bs, spec.mol);
        su.x = la::canonical_orthogonalizer(su.s,
                                            defaults.scf.lindep_tolerance);
        times.one_electron_s = span.stop();
      }
    } catch (...) {
      error = std::current_exception();
    }
  }).join();
  if (error) std::rethrow_exception(error);
  return su;
}

std::unique_ptr<scf::FockBuilder> make_builder(const AlgSpec& alg,
                                               const Setup& su,
                                               par::Ddi& ddi) {
  switch (alg.algorithm) {
    case core::ScfAlgorithm::kMpiOnly:
      return std::make_unique<core::FockBuilderMpi>(*su.eri, *su.screen, ddi);
    case core::ScfAlgorithm::kPrivateFock: {
      core::PrivateFockOptions opt;
      opt.nthreads = alg.nthreads;
      return std::make_unique<core::FockBuilderPrivate>(*su.eri, *su.screen,
                                                        ddi, opt);
    }
    case core::ScfAlgorithm::kSharedFock: {
      core::SharedFockOptions opt;
      opt.nthreads = alg.nthreads;
      return std::make_unique<core::FockBuilderShared>(*su.eri, *su.screen,
                                                       ddi, opt);
    }
    case core::ScfAlgorithm::kDistFock:
      return std::make_unique<core::FockBuilderDist>(*su.eri, *su.screen, ddi);
  }
  MC_CHECK(false, "unknown algorithm");
  return nullptr;
}

/// Decorator that times every build run_scf makes (one span each) and
/// keeps the last incremental build's delta density and context, so the
/// probes can replay a representative late-SCF delta build. Forwards the
/// counters run_scf reads outside profiling.
class RecordingBuilder : public scf::FockBuilder {
 public:
  explicit RecordingBuilder(scf::FockBuilder& inner) : inner_(&inner) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  using FockBuilder::build;
  void build(const la::Matrix& density, la::Matrix& g,
             const scf::FockContext& ctx) override {
    ScopedSpan span(ctx.incremental ? "fock.scf_delta_build"
                                    : "fock.scf_full_build");
    inner_->build(density, g, ctx);
    if (ctx.incremental) {
      last_delta_ = density;
      last_ctx_ = ctx;
    }
  }
  [[nodiscard]] std::size_t last_quartets_computed() const override {
    return inner_->last_quartets_computed();
  }
  [[nodiscard]] std::size_t last_density_screened() const override {
    return inner_->last_density_screened();
  }
  [[nodiscard]] double screening_threshold() const override {
    return inner_->screening_threshold();
  }

  [[nodiscard]] const la::Matrix& last_delta() const { return last_delta_; }
  [[nodiscard]] const scf::FockContext& last_ctx() const { return last_ctx_; }

 private:
  scf::FockBuilder* inner_;
  la::Matrix last_delta_;
  scf::FockContext last_ctx_;
};

/// One builder's replayed builds at the converged density and at the
/// recorded delta, with the counters of its last full build.
struct Replay {
  std::vector<double> full_s;
  std::vector<double> delta_s;
  double tasks = 0.0;
  std::vector<double> worker_quartets;  ///< per rank x thread
  double tile_hits = 0.0;
  double tile_misses = 0.0;
  double max_g_diff = 0.0;  ///< |G - G_serial|, full build
};

Replay replay_builds(const AlgSpec& alg, const Setup& su,
                     const la::Matrix& d, const la::Matrix& delta,
                     const scf::FockContext& delta_ctx,
                     const la::Matrix& g_ref, int reps) {
  Replay out;
  std::mutex mu;
  ScopedSpan parent(std::string("fock.replay.") + alg.key);
  const std::uint64_t parent_id = parent.id();
  const std::uint64_t run = parent.run();
  const std::size_t nbf = su.bs->nbf();
  par::run_spmd(alg.nranks, [&](par::Comm& comm) {
    par::Ddi ddi(comm);
    auto builder = make_builder(alg, su, ddi);
    const bool root = comm.rank() == 0;
    la::Matrix g(nbf, nbf);
    // Timed on rank 0 from a common barrier; build() is collective and
    // ends in the gsumf, so rank 0's time is the build's.
    auto timed = [&](const char* what, const la::Matrix& dm,
                     const scf::FockContext& ctx, std::vector<double>& sink) {
      comm.barrier();
      g.set_zero();
      std::optional<ScopedSpan> span;
      if (root) span.emplace(std::string(what) + alg.key, parent_id, run);
      builder->build(dm, g, ctx);
      if (root) sink.push_back(span->stop());
    };
    for (int r = 0; r < reps; ++r) {
      timed("fock.full_build.", d, scf::FockContext{}, out.full_s);
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      out.tasks += static_cast<double>(builder->last_pairs_claimed());
      for (const std::size_t q : builder->last_thread_quartets()) {
        out.worker_quartets.push_back(static_cast<double>(q));
      }
      out.tile_hits += static_cast<double>(builder->last_tile_cache_hits());
      out.tile_misses +=
          static_cast<double>(builder->last_tile_cache_misses());
      if (root) {
        g.symmetrize();
        out.max_g_diff = g.max_abs_diff(g_ref);
      }
    }
    for (int r = 0; r < reps; ++r) {
      timed("fock.delta_build.", delta, delta_ctx, out.delta_s);
    }
  });
  return out;
}

double max_over_mean(const std::vector<double>& v) {
  if (v.empty()) return 1.0;
  const double mean =
      std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
  return mean > 0.0 ? *std::max_element(v.begin(), v.end()) / mean : 1.0;
}

/// Sweep QuartetBatch::evaluate `reps` times over every statically
/// screened canonical quartet with the obs per-class accumulators on;
/// reports ints.* and writes the per-class cost table.
void probe_eri(const Setup& su, double full_serial_s, int reps,
               const std::string& cost_table_path, Report& report,
               Tally& tally) {
  const mc::ints::Screening& screen = *su.screen;
  const mc::ints::ShellPairList& pairs = su.eri->pairs();
  const mc::basis::BasisSet& bs = *su.bs;
  auto nprim = [&](std::size_t a, std::size_t b) {
    return static_cast<double>(
        pairs.pair(std::max(a, b), std::min(a, b)).prims.size());
  };
  // Primitive-pair-product units per class: the cost model's unit.
  double units[kMaxPairL + 1][kMaxPairL + 1] = {};
  std::vector<double> eval_s;

  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  for (int r = 0; r < reps; ++r) {
    ScopedSpan sweep("ints.eri_sweep");
    std::size_t swept = 0;
    double rep_s = 0.0;
    mc::ints::QuartetBatch batch(*su.eri);
    auto flush = [&] {
      const std::uint64_t t0 = now_ns();
      batch.evaluate();
      rep_s += static_cast<double>(now_ns() - t0) * 1e-9;
      batch.clear();
    };
    // The serial builder's order (Schwarz-sorted bra pairs), so batches
    // group the same quartets a build evaluates.
    for (const mc::ints::ScreenedPair& pr : screen.sorted_pairs()) {
      const std::size_t i = pr.i;
      const std::size_t j = pr.j;
      scf::for_each_kl(i, j, [&](std::size_t k, std::size_t l) {
        if (!screen.keep(i, j, k, l)) return;
        batch.add(i, j, k, l);
        ++swept;
        if (r == 0) {
          const int lb = std::min(bs.shell(i).l + bs.shell(j).l, kMaxPairL);
          const int lk = std::min(bs.shell(k).l + bs.shell(l).l, kMaxPairL);
          units[lb][lk] += nprim(i, j) * nprim(k, l);
        }
        if (batch.full()) flush();
      });
    }
    if (!batch.empty()) flush();
    eval_s.push_back(rep_s);
    tally.check(swept == screen.count_surviving_quartets(),
                "ERI sweep visited a different quartet count than screening "
                "predicts");
  }
  obs::set_metrics_enabled(false);

  const double total_ns = static_cast<double>(obs::eri_class_totals().ns);
  std::string rows;
  for (int lb = 0; lb <= kMaxPairL; ++lb) {
    for (int lk = 0; lk <= kMaxPairL; ++lk) {
      // Accumulated over all sweeps; the table reports one sweep.
      const obs::EriClassStats st = obs::eri_class_stats(lb, lk);
      const double ns = static_cast<double>(st.ns) / reps;
      const double q = static_cast<double>(st.quartets) / reps;
      const std::string base = "ints.class." + std::to_string(lb) + "_" +
                               std::to_string(lk);
      report.set(base + ".us_per_quartet", q > 0 ? ns * 1e-3 / q : 0.0, "us");
      report.set(base + ".share",
                 total_ns > 0 ? static_cast<double>(st.ns) / total_ns : 0.0,
                 "fraction");
      if (st.quartets == 0) continue;
      char row[256];
      std::snprintf(row, sizeof row,
                    "%s\n    {\"lbra\": %d, \"lket\": %d, \"quartets\": %.0f, "
                    "\"units\": %.17g, \"seconds\": %.17g, "
                    "\"s_per_unit\": %.17g}",
                    rows.empty() ? "" : ",", lb, lk, q, units[lb][lk],
                    ns * 1e-9, ns * 1e-9 / units[lb][lk]);
      rows += row;
    }
  }
  const double eri_s = median(eval_s);
  report.set("ints.eri_s", eri_s, "s");
  report.set("ints.eri_share", full_serial_s > 0 ? eri_s / full_serial_s : 0,
             "fraction");

  // The knlsim EriCostTable form: seconds per primitive-pair product per
  // (Lsum_bra, Lsum_ket) class, bra-major, from batched evaluation.
  if (std::FILE* f = std::fopen(cost_table_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"schema\": \"bench_scf_e2e.eri_cost_table/1\",\n"
                 " \"unit\": \"seconds per primitive-pair product "
                 "(nprim(bra pair) * nprim(ket pair))\",\n"
                 " \"basis\": %s,\n \"classes\": [%s\n ]}\n",
                 json_string(bs.name()).c_str(), rows.c_str());
    std::fclose(f);
  }
}

/// la.* and scf.diis_s at the workload's size.
void probe_la(const Setup& su, const la::Matrix& f, const la::Matrix& d,
              int reps, Report& report) {
  std::vector<double> eig_s;
  std::vector<double> gemm_s;
  std::vector<double> diis_s;
  for (int r = 0; r < reps; ++r) {
    ScopedSpan span("la.eigh_generalized");
    const la::SymEigResult e = la::eigh_generalized(f, su.x);
    eig_s.push_back(span.stop());
    MC_CHECK(!e.values.empty(), "empty eigensystem");
  }
  for (int r = 0; r < reps; ++r) {
    ScopedSpan span("la.gemm");
    const la::Matrix p = la::gemm(f, d);
    gemm_s.push_back(span.stop());
    MC_CHECK(p.rows() == f.rows(), "gemm shape");
  }
  // DIIS with a full history of distinct error vectors (the SCF loop's
  // orthonormal-basis commutator, perturbed per vector so B stays
  // well-conditioned); each timed step is push + extrapolate.
  la::Matrix fds = la::gemm(f, la::gemm(d, su.s));
  la::Matrix err_ao = fds;
  err_ao -= fds.transposed();
  const la::Matrix err = la::gemm_tn(su.x, la::gemm(err_ao, su.x));
  scf::Diis diis(8);
  for (int k = 0; k < 8 + reps; ++k) {
    la::Matrix e = err;
    for (std::size_t q = 0; q < e.size(); ++q) {
      e.data()[q] += 1e-4 * std::sin(static_cast<double>(q * 7 + k * 13));
    }
    std::optional<ScopedSpan> span;
    if (k >= 8) span.emplace("scf.diis");
    diis.push(f, e);
    const la::Matrix fe = diis.extrapolate();
    if (k >= 8) diis_s.push_back(span->stop());
    MC_CHECK(fe.rows() == f.rows(), "diis shape");
  }
  report.set("la.eigh_generalized_s", median(eig_s), "s");
  report.set("la.gemm_s", median(gemm_s), "s");
  report.set("scf.diis_s", median(diis_s), "s");
}

}  // namespace

SetupTimes time_setup(const MoleculeSpec& spec) {
  SetupTimes t;
  const Setup su = build_setup(spec, t);
  return t;
}

void warm_up(const MoleculeSpec& spec, double seconds) {
  ScopedSpan span("bench.warm_up");
  while (span.seconds() < seconds) static_cast<void>(time_setup(spec));
}

SetupStats summarize_setup(const std::vector<SetupTimes>& v) {
  auto med = [&](auto get) {
    std::vector<double> x;
    for (const SetupTimes& t : v) x.push_back(get(t));
    return median(std::move(x));
  };
  SetupStats st;
  st.median_parts.basis_s = med([](const SetupTimes& t) { return t.basis_s; });
  st.median_parts.eri_engine_s =
      med([](const SetupTimes& t) { return t.eri_engine_s; });
  st.median_parts.screening_s =
      med([](const SetupTimes& t) { return t.screening_s; });
  st.median_parts.one_electron_s =
      med([](const SetupTimes& t) { return t.one_electron_s; });
  st.median_total_s = med([](const SetupTimes& t) { return t.total(); });
  return st;
}

void report_setup_layers(const SetupTimes& t, Report& report) {
  report.set("setup.basis_s", t.basis_s, "s");
  report.set("setup.eri_engine_s", t.eri_engine_s, "s");
  report.set("setup.screening_s", t.screening_s, "s");
  report.set("setup.one_electron_s", t.one_electron_s, "s");
}

ColdRun run_cold(const AlgSpec& alg, const MoleculeSpec& spec) {
  const core::ParallelScfConfig cfg = scf_config(alg, spec);
  ColdRun run;
  ScopedSpan span(std::string("core.run_parallel_scf.") + alg.key);
  run.result = core::run_parallel_scf(spec.mol, cfg);
  run.wall_s = span.stop();
  return run;
}

void ScfSamples::add(const AlgSpec& alg, const ColdRun& run) {
  const auto& peaks = run.result.peak_bytes_per_rank;
  wall_s_[alg.key].push_back(run.wall_s);
  mem_mib_[alg.key].push_back(
      static_cast<double>(
          std::accumulate(peaks.begin(), peaks.end(), std::size_t{0})) /
      kMiB);
}

void ScfSamples::report(Report& report) const {
  for (const AlgSpec& alg : algorithms()) {
    report.set(std::string("scf_s.") + alg.key, median(wall_s_.at(alg.key)),
               "s");
    report.set(std::string("mem_mib.") + alg.key,
               median(mem_mib_.at(alg.key)), "MiB");
  }
}

std::size_t ScfSamples::count() const {
  std::size_t n = 0;
  for (const auto& [key, v] : wall_s_) n += v.size();
  return n;
}

bool energy_ok(const scf::ScfResult& r, double energy) {
  return r.converged && std::abs(r.energy - energy) <= kEnergyTolerance;
}

double serial_energy(const MoleculeSpec& spec) {
  ScopedSpan span("scf.serial_reference");
  SetupTimes ignored;
  const Setup su = build_setup(spec, ignored);
  scf::SerialFockBuilder builder(*su.eri, *su.screen);
  const scf::ScfResult r = scf::run_scf(spec.mol, *su.bs, builder);
  MC_CHECK(r.converged, "serial reference SCF did not converge");
  return r.energy;
}

void probe_scf_layers(const MoleculeSpec& spec, double energy,
                      double setup_total_s, int reps,
                      const std::string& cost_table_path, Report& report,
                      Tally& tally) {
  ScopedSpan probe("bench.layers");
  SetupTimes ignored;
  const Setup su = build_setup(spec, ignored);
  const std::size_t nbf = su.bs->nbf();

  // SCF loop: run_scf on a one-rank world with the private-Fock 1x4
  // builder; the recorder keeps the last delta density for the replays.
  scf::ScfResult res;
  la::Matrix delta;
  scf::FockContext delta_ctx;
  {
    ScopedSpan span("scf.run_scf");
    const std::uint64_t parent_id = span.id();
    par::run_spmd(1, [&](par::Comm& comm) {
      ScopedSpan rank_span("scf.run_scf.rank", parent_id, span.run());
      par::Ddi ddi(comm);
      core::PrivateFockOptions opt;
      opt.nthreads = kWorkers;
      core::FockBuilderPrivate inner(*su.eri, *su.screen, ddi, opt);
      RecordingBuilder recorder(inner);
      res = scf::run_scf(spec.mol, *su.bs, recorder);
      delta = recorder.last_delta();
      delta_ctx = recorder.last_ctx();
    });
  }
  tally.check(energy_ok(res, energy),
              spec.label + ": run_scf missed the reference energy");
  if (delta.empty()) {
    // Converged without an incremental build: replay the full density
    // under an incremental context instead.
    delta = res.density;
    delta_ctx = scf::FockContext::from_density(*su.bs, delta, true);
  }
  double quartets = 0.0;
  double screened = 0.0;
  double full_rebuilds = 0.0;
  for (const scf::ScfIterationInfo& it : res.history) {
    quartets += static_cast<double>(it.quartets_computed);
    screened += static_cast<double>(it.density_screened);
    full_rebuilds += it.full_rebuild ? 1.0 : 0.0;
  }
  report.set("scf.iterations", res.iterations, "count");
  report.set("scf.full_rebuilds", full_rebuilds, "count");
  report.set("scf.quartets_total", quartets, "count");
  report.set("scf.density_screened_total", screened, "count");
  const la::Matrix& d = res.density;

  // Serial reference build at the converged density. Small molecules build
  // in tens of milliseconds: every timed probe below then repeats until
  // about half a second is spent (at most 20 times).
  la::Matrix g_ref(nbf, nbf);
  std::vector<double> serial_s;
  {
    scf::SerialFockBuilder serial(*su.eri, *su.screen);
    for (int r = 0; r < reps; ++r) {
      g_ref.set_zero();
      ScopedSpan span("fock.full_build.serial");
      serial.build(d, g_ref);
      serial_s.push_back(span.stop());
      if (r == 0 && reps > 1) {
        reps = std::clamp(static_cast<int>(0.5 / serial_s.front()), reps, 20);
      }
    }
    g_ref.symmetrize();
  }
  const double full_serial_s = median(serial_s);
  report.set("fock.full_s.serial", full_serial_s, "s");

  probe_eri(su, full_serial_s, reps, cost_table_path, report, tally);

  // Builders: full build at the converged density, delta build replayed.
  for (const AlgSpec& alg : algorithms()) {
    const Replay rp = replay_builds(alg, su, d, delta, delta_ctx, g_ref, reps);
    const std::string k = alg.key;
    tally.check(rp.max_g_diff < 1e-9,
                spec.label + ": " + k + " full build differs from serial");
    const double full_s = median(rp.full_s);
    report.set("fock.full_s." + k, full_s, "s");
    report.set("fock.delta_s." + k, median(rp.delta_s), "s");
    report.set("fock.eff4." + k, full_serial_s / (kWorkers * full_s),
               "fraction");
    report.set("fock.imbalance." + k, max_over_mean(rp.worker_quartets),
               "ratio");
    report.set("fock.tasks." + k, rp.tasks, "count");
    if (alg.algorithm == core::ScfAlgorithm::kDistFock) {
      const double reads = rp.tile_hits + rp.tile_misses;
      report.set("par.tile_reads.dist", reads, "count");
      report.set("par.tile_hit_ratio.dist",
                 reads > 0 ? rp.tile_hits / reads : 0.0, "fraction");
    }
  }

  // Whole cold SCFs with the program's obs tracing and accumulators on:
  // per-rank wait channels, memory peaks, and the non-Fock remainder.
  auto traced_cold = [&](const AlgSpec& alg) {
    obs::reset_metrics();
    obs::reset_trace();
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(true);
    const ColdRun run = run_cold(alg, spec);
    obs::set_trace_enabled(false);
    obs::set_metrics_enabled(false);
    return run;
  };
  std::vector<double> traced_mpi_s;
  for (const AlgSpec& alg : algorithms()) {
    const ColdRun run = traced_cold(alg);
    const std::string k = alg.key;
    tally.check(energy_ok(run.result.scf, energy),
                spec.label + ": traced " + k + " SCF missed the energy");
    auto mean_channel = [&](std::initializer_list<obs::Channel> chans) {
      double sum = 0.0;
      for (int r = 0; r < alg.nranks; ++r) {
        for (const obs::Channel c : chans) sum += obs::channel_seconds(c, r);
      }
      return sum / alg.nranks;
    };
    report.set("par.dlb_wait_s." + k, mean_channel({obs::Channel::kDlbWait}),
               "s");
    report.set("par.gsum_s." + k, mean_channel({obs::Channel::kGsum}), "s");
    report.set("par.barrier_s." + k, mean_channel({obs::Channel::kBarrier}),
               "s");
    if (alg.algorithm == core::ScfAlgorithm::kDistFock) {
      report.set("par.window_s.dist",
                 mean_channel({obs::Channel::kPut, obs::Channel::kGet,
                               obs::Channel::kAcc}),
                 "s");
    }
    report.set("scf.other_s." + k,
               run.wall_s - run.result.scf.fock_build_seconds - setup_total_s,
               "s");
    const auto& peaks = run.result.peak_bytes_per_rank;
    report.set("mem.rank_peak_mib." + k,
               static_cast<double>(*std::max_element(peaks.begin(),
                                                     peaks.end())) /
                   kMiB,
               "MiB");
    if (alg.algorithm == core::ScfAlgorithm::kMpiOnly) {
      traced_mpi_s.push_back(run.wall_s);
    }
  }
  // Overhead: medians of alternating untraced and traced mpi SCFs.
  std::vector<double> untraced_mpi_s;
  for (int r = 0; r < kOverheadPairs; ++r) {
    const AlgSpec& mpi = algorithms().front();
    const ColdRun untraced = run_cold(mpi, spec);
    tally.check(energy_ok(untraced.result.scf, energy),
                spec.label + ": untraced mpi SCF missed the energy");
    untraced_mpi_s.push_back(untraced.wall_s);
    if (r > 0) traced_mpi_s.push_back(traced_cold(mpi).wall_s);
  }
  obs::reset_trace();
  report.set("obs.overhead_frac",
             median(traced_mpi_s) / median(untraced_mpi_s) - 1.0, "fraction");

  la::Matrix f = su.h;
  f += g_ref;
  probe_la(su, f, d, std::max(reps, 5), report);
}

}  // namespace bench
