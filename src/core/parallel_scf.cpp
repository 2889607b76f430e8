#include "core/parallel_scf.hpp"

#include <omp.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <numeric>
#include <utility>

#include "basis/basis_set.hpp"
#include "common/error.hpp"
#include "common/memory_tracker.hpp"
#include "common/timer.hpp"
#include "core/fock_mpi.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/ddi.hpp"
#include "par/runtime.hpp"

namespace mc::core {

double ParallelScfResult::load_imbalance() const {
  if (quartets_per_rank.empty()) return 1.0;
  const auto total = std::accumulate(quartets_per_rank.begin(),
                                     quartets_per_rank.end(), std::size_t{0});
  if (total == 0) return 1.0;
  const double mean = static_cast<double>(total) /
                      static_cast<double>(quartets_per_rank.size());
  const auto mx = *std::max_element(quartets_per_rank.begin(),
                                    quartets_per_rank.end());
  return static_cast<double>(mx) / mean;
}

namespace {

std::unique_ptr<scf::FockBuilder> make_builder(
    const ParallelScfConfig& cfg, const ints::EriEngine& eri,
    const ints::Screening& screen, par::Ddi& ddi) {
  switch (cfg.algorithm) {
    case ScfAlgorithm::kMpiOnly:
      return std::make_unique<FockBuilderMpi>(eri, screen, ddi);
    case ScfAlgorithm::kPrivateFock:
      return std::make_unique<FockBuilderPrivate>(
          eri, screen, ddi, PrivateFockOptions{cfg.nthreads});
    case ScfAlgorithm::kSharedFock:
      return std::make_unique<FockBuilderShared>(
          eri, screen, ddi, SharedFockOptions{cfg.nthreads});
    case ScfAlgorithm::kDistFock:
      // Single-threaded per rank (like MPI-only); cfg.nthreads is ignored.
      return std::make_unique<FockBuilderDist>(eri, screen, ddi);
  }
  MC_CHECK(false, "unknown algorithm");
  return nullptr;
}

/// The RHF core's lockstep over one SPMD team: the counter sum is a
/// ddi_gsumf, the RMS agreement an allreduce_max, and the profiling gather
/// deposits into `slots` between two barriers (profiling only, so runs
/// without it -- e.g. the fault-injection tests, which count collective
/// ops -- see an unchanged op sequence).
class CommLockstep final : public scf::ScfLockstep {
 public:
  CommLockstep(par::Ddi& ddi, std::vector<obs::RankIterationMetrics>& slots)
      : ddi_(&ddi), slots_(&slots) {}

  scf::BuildCounts sum_counts(scf::BuildCounts local) override {
    // Integer-valued doubles well under 2^53: the sum is exact.
    la::Matrix counts(1, 2);
    counts(0, 0) = static_cast<double>(local.quartets);
    counts(0, 1) = static_cast<double>(local.density_screened);
    ddi_->gsumf(counts);
    return {static_cast<std::size_t>(counts(0, 0)),
            static_cast<std::size_t>(counts(0, 1))};
  }

  double max_density_rms(double rms) override {
    // Keeps the convergence decision common even if floating-point drift
    // were to appear between ranks.
    return ddi_->comm().allreduce_max(rms);
  }

  std::vector<obs::RankIterationMetrics> gather_metrics(
      obs::RankIterationMetrics mine) override {
    par::Comm& comm = ddi_->comm();
    (*slots_)[static_cast<std::size_t>(comm.rank())] = std::move(mine);
    comm.barrier();  // all deposits visible to rank 0
    std::vector<obs::RankIterationMetrics> all;
    if (comm.rank() == 0) all = *slots_;
    comm.barrier();  // rank 0 has read before the next iteration's deposit
    return all;
  }

 private:
  par::Ddi* ddi_;
  std::vector<obs::RankIterationMetrics>* slots_;
};

}  // namespace

int builder_threads(ScfAlgorithm algorithm, int nthreads) {
  const bool team = algorithm == ScfAlgorithm::kPrivateFock ||
                    algorithm == ScfAlgorithm::kSharedFock;
  return team ? nthreads : 1;
}

ParallelScfResult run_parallel_scf(const chem::Molecule& mol,
                                   const ParallelScfConfig& config) {
  return run_parallel_scf(mol, config, ParallelScfContext{});
}

ParallelScfResult run_parallel_scf(const chem::Molecule& mol,
                                   const ParallelScfConfig& config,
                                   const ParallelScfContext& ctx) {
  MC_CHECK(config.nranks >= 1, "need at least one rank");
  MC_CHECK(config.nthreads >= 1, "need at least one thread per rank");
  MC_CHECK(config.basis_per_atom.empty() ||
               config.basis_per_atom.size() == mol.natoms(),
           "basis_per_atom must name a basis for every atom");
  MC_CHECK(ctx.has_setup() ||
               (ctx.basis_set == nullptr && ctx.eri == nullptr &&
                ctx.screening == nullptr),
           "ParallelScfContext setup must be all-or-nothing (basis_set, "
           "eri, and screening together)");

  const auto nranks = static_cast<std::size_t>(config.nranks);
  ParallelScfResult result;
  result.quartets_per_rank.assign(nranks, 0);
  result.peak_bytes_per_rank.assign(nranks, 0);
  result.dlb_wait_seconds_per_rank.assign(nranks, 0.0);
  result.gsum_seconds_per_rank.assign(nranks, 0.0);
  std::mutex result_mu;

  // --profile: the session lives on the host thread and every rank's core
  // sees it; the lockstep gathers the per-rank metrics and rank 0 writes.
  std::unique_ptr<obs::ProfileSession> profile;
  if (!config.scf.profile_path.empty()) {
    profile = std::make_unique<obs::ProfileSession>(config.scf.profile_path);
  }
  std::vector<obs::RankIterationMetrics> metric_slots(nranks);

  if (ctx.exclusive) MemoryTracker::instance().reset();
  WallTimer wall;

  par::run_spmd(config.nranks, [&](par::Comm& comm) {
    // The rank's setup runs on the threads its builder runs on: an OpenMP
    // region without its own num_threads clause (the Screening's Schwarz
    // sweep) would otherwise fork a default team of one thread per CPU on
    // every rank. The setting dies with the rank thread.
    omp_set_num_threads(builder_threads(config.algorithm, config.nthreads));
    par::Ddi ddi(comm);
    const int rank = comm.rank();

    // Every rank owns replicated copies of the geometry-derived data --
    // exactly the replication pattern of the real GAMESS code. In warm
    // (server) mode the setup instead arrives prebuilt and immutable from
    // the caller's cache and is *shared* by all ranks: BasisSet, EriEngine,
    // and Screening are read-only during builds, so sharing trades the
    // replication fidelity for zero per-job setup cost.
    std::unique_ptr<basis::BasisSet> own_bs;
    std::unique_ptr<ints::EriEngine> own_eri;
    std::unique_ptr<ints::Screening> own_screen;
    if (!ctx.has_setup()) {
      {
        MC_OBS_TRACE("setup:basis");
        own_bs = std::make_unique<basis::BasisSet>(
            config.basis_per_atom.empty()
                ? basis::BasisSet::build(mol, config.basis)
                : basis::BasisSet::build_mixed(mol, config.basis_per_atom));
      }
      {
        MC_OBS_TRACE("setup:eri_engine");
        own_eri = std::make_unique<ints::EriEngine>(*own_bs);
      }
      MC_OBS_TRACE("setup:screening");
      own_screen =
          std::make_unique<ints::Screening>(*own_eri, config.schwarz_threshold);
    }
    const basis::BasisSet& bs = ctx.has_setup() ? *ctx.basis_set : *own_bs;
    const ints::EriEngine& eri = ctx.has_setup() ? *ctx.eri : *own_eri;
    const ints::Screening& screen =
        ctx.has_setup() ? *ctx.screening : *own_screen;
    auto builder = make_builder(config, eri, screen, ddi);

    CommLockstep team(ddi, metric_slots);
    scf::ScfResult res =
        scf::run_rhf(mol, bs, *builder, config.scf, team, profile.get(), {},
                     ctx.seed_density.get());

    {
      const auto slot = static_cast<std::size_t>(rank);
      std::lock_guard<std::mutex> lk(result_mu);
      result.quartets_per_rank[slot] = builder->last_quartets_computed();
      result.peak_bytes_per_rank[slot] =
          MemoryTracker::instance().rank_peak_bytes(rank);
      result.dlb_wait_seconds_per_rank[slot] =
          obs::channel_seconds(obs::Channel::kDlbWait, rank);
      result.gsum_seconds_per_rank[slot] =
          obs::channel_seconds(obs::Channel::kGsum, rank);
      if (rank == 0) result.scf = std::move(res);
    }
    comm.barrier();
  });

  result.wall_seconds = wall.seconds();
  return result;
}

}  // namespace mc::core
