#pragma once
// End-to-end distributed SCF: launches a minimpi SPMD job in which every
// rank runs the RHF iteration core scf::run_rhf in lockstep -- replicated
// one-electron matrices and diagonalization, cooperative two-electron Fock
// build with the selected algorithm, ddi_gsumf reduction -- and reports
// rank-0 results plus per-rank memory and load statistics.
//
// This is the public entry point a downstream user calls; the examples and
// the algorithm-comparison benchmarks are built on it.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "chem/molecule.hpp"
#include "core/fock_dist.hpp"
#include "core/fock_private.hpp"
#include "core/fock_shared.hpp"
#include "core/memory_model.hpp"
#include "ints/screening.hpp"
#include "scf/scf_driver.hpp"

namespace mc::core {

struct ParallelScfConfig {
  ScfAlgorithm algorithm = ScfAlgorithm::kSharedFock;
  int nranks = 1;
  /// OpenMP threads per rank; forced to 1 for the MPI-only algorithm.
  int nthreads = 1;
  std::string basis = "STO-3G";
  /// Mixed-basis entry point: when non-empty (size must equal
  /// mol.natoms()), every rank builds BasisSet::build_mixed with this
  /// per-atom assignment and `basis` is ignored. This is how the fuzz soak
  /// and the job server replay the differential harness's per-atom basis
  /// sampling through the full distributed SCF (ROADMAP PR-8 headroom).
  std::vector<std::string> basis_per_atom;
  scf::ScfOptions scf;
  double schwarz_threshold = 1e-10;
};

/// Optional warm inputs for a run, owned by the caller (the job server's
/// warm caches). Everything here is immutable and internally thread-safe
/// for concurrent reads, so one instance may back several concurrent
/// worlds at once.
struct ParallelScfContext {
  /// Prebuilt basis/integral setup shared by every rank (replacing the
  /// per-rank replicated construction). All three must be set together and
  /// must match the config's basis assignment and Schwarz threshold --
  /// they are keyed by exactly those in the server's setup cache.
  std::shared_ptr<const basis::BasisSet> basis_set;
  std::shared_ptr<const ints::EriEngine> eri;
  std::shared_ptr<const ints::Screening> screening;
  /// Warm-start seed: replaces the atomic start as the iteration-1
  /// density on every rank (all ranks read the same matrix, so the
  /// lockstep invariant holds trivially).
  std::shared_ptr<const la::Matrix> seed_density;
  /// True when this job owns the process-global trackers: the classic
  /// one-shot mode resets MemoryTracker before running. The job server
  /// passes false so concurrent jobs never clobber each other's
  /// accounting (per-rank attribution is then co-mingled across worlds --
  /// acceptable for serving, where the JobRecord carries the telemetry).
  bool exclusive = true;

  [[nodiscard]] bool has_setup() const {
    return basis_set != nullptr && eri != nullptr && screening != nullptr;
  }
};

struct ParallelScfResult {
  scf::ScfResult scf;  ///< rank-0 result (all ranks converge identically)
  double wall_seconds = 0.0;
  /// Quartets computed by each rank in the *final* Fock build -- the load
  /// balance signature of the algorithm.
  std::vector<std::size_t> quartets_per_rank;
  /// Tracked-allocation peak per rank over the whole run.
  std::vector<std::size_t> peak_bytes_per_rank;
  /// Cumulative per-rank wait times over the whole run, from the obs
  /// channel accumulators (all zero unless metrics are enabled -- i.e. a
  /// --profile run or MC_OBS=1 in the environment).
  std::vector<double> dlb_wait_seconds_per_rank;
  std::vector<double> gsum_seconds_per_rank;
  /// max/mean of quartets_per_rank (1.0 = perfect balance).
  [[nodiscard]] double load_imbalance() const;
};

/// OpenMP threads the algorithm's builder runs on each rank: `nthreads`
/// for private and shared Fock, 1 otherwise. A thread about to build a
/// setup sets its OpenMP width to this first (run_parallel_scf on every
/// rank, the job server on its world thread): the Screening's Schwarz
/// sweep, the one OpenMP region without its own num_threads clause, would
/// otherwise fork a default team of one thread per CPU that idles for the
/// thread's life.
int builder_threads(ScfAlgorithm algorithm, int nthreads);

/// Run the distributed SCF. Throws mc::Error on invalid configuration or
/// non-convergence is reported via result.scf.converged.
ParallelScfResult run_parallel_scf(const chem::Molecule& mol,
                                   const ParallelScfConfig& config);

/// Warm-path variant: shared prebuilt setup and/or a seed density from
/// `ctx` (see ParallelScfContext). The job server's submit path lands
/// here; the two-argument overload forwards with a default (cold,
/// exclusive) context.
ParallelScfResult run_parallel_scf(const chem::Molecule& mol,
                                   const ParallelScfConfig& config,
                                   const ParallelScfContext& ctx);

}  // namespace mc::core
