#pragma once
// The SCF driver: a starting density superposed from atomic densities,
// Fock build (delegated to a FockBuilder strategy), DIIS, diagonalization,
// convergence control. Mirrors the GAMESS RHF SCF structure the paper
// describes in section 3; like GAMESS, which starts RHF from an atomic
// (Hueckel) guess, it starts from the atoms, not from the bare core
// Hamiltonian of the whole molecule (DESIGN.md section 9.5).

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/molecule.hpp"
#include "la/matrix.hpp"
#include "obs/metrics.hpp"
#include "scf/fock_builder.hpp"

namespace mc::scf {

struct ScfOptions {
  int max_iterations = 60;
  /// Convergence on RMS density change (GAMESS CONV on density).
  double density_tolerance = 1e-8;
  /// Convergence on |Delta E|.
  double energy_tolerance = 1e-10;
  bool use_diis = true;
  int charge = 0;
  /// Eigenvalue cutoff for near-linear-dependence in S.
  double lindep_tolerance = 1e-10;
  /// Density damping: D <- (1-a) D_new + a D_old. 0 disables (default).
  /// A classic fallback for oscillating SCFs when DIIS struggles.
  double damping = 0.0;

  /// Incremental (delta-density) Fock builds: after a full build of
  /// F = G(D), subsequent iterations compute only G(D_n - D_{n-1}) under
  /// density-weighted screening and accumulate (DESIGN.md section 9). As
  /// the density converges the delta shrinks and most quartets screen out.
  bool incremental_fock = true;
  /// Force a full rebuild after this many consecutive incremental builds
  /// (caps screening-error accumulation; GAMESS-style reset policy).
  int fock_rebuild_interval = 12;

  /// When non-empty, profile the run: stream one machine-readable JSON
  /// record per SCF iteration to <profile_path>.metrics.jsonl and write a
  /// chrome-trace timeline to <profile_path>.trace.json (DESIGN.md
  /// section 10). Honoured by run_scf and by core::run_parallel_scf (via
  /// ParallelScfConfig::scf).
  std::string profile_path;
};

/// Full rebuild as soon as the accumulated screening-error estimate of the
/// incremental builds since the last full one (sum of threshold * scale *
/// density-screened quartets / nbf) exceeds this bound.
inline constexpr double kIncrementalErrorBound = 1e-8;
/// Schwarz-threshold multiplier of incremental builds (< 1 tightens): the
/// delta-density bound drops quartets whose *contribution to the current
/// update* is small, so the cut must sit well below the static budget for
/// the accumulated Fock to stay accurate.
inline constexpr double kIncrementalThresholdScale = 0.01;

struct ScfIterationInfo {
  int iteration = 0;
  double energy = 0.0;          // total energy at this iteration
  double delta_energy = 0.0;
  double density_rms = 0.0;
  double fock_build_seconds = 0.0;
  /// True when this iteration rebuilt G from the full density (iteration 1
  /// and reset-policy rebuilds); false for delta-density builds.
  bool full_rebuild = true;
  /// Quartets the builder computed this iteration (this rank's share for
  /// distributed builders under run_scf; summed over ranks by
  /// run_parallel_scf). 0 if the builder does not count.
  std::size_t quartets_computed = 0;
  /// Quartets killed by density-weighted screening this iteration.
  std::size_t density_screened = 0;
};

struct ScfResult {
  bool converged = false;
  int iterations = 0;
  double energy = 0.0;             ///< total (electronic + nuclear), Hartree
  double electronic_energy = 0.0;
  double nuclear_repulsion = 0.0;
  std::vector<double> orbital_energies;
  la::Matrix density;              ///< converged density (Tr(DS) = Nelec)
  la::Matrix fock;                 ///< converged Fock matrix
  la::Matrix mo_coefficients;
  std::vector<ScfIterationInfo> history;
  /// Accumulated wall time in FockBuilder::build -- the paper's
  /// "TIME TO FORM FOCK" metric (artifact appendix A.5).
  double fock_build_seconds = 0.0;
};

/// Caller hooks; the defaults are no-ops.
struct ScfCallbacks {
  /// Called after each iteration with the info record (e.g. rank-0 logging).
  std::function<void(const ScfIterationInfo&)> on_iteration;
};

/// Quartet counters of one Fock build that the iteration core needs summed
/// over an SPMD team.
struct BuildCounts {
  std::size_t quartets = 0;          ///< quartets computed
  std::size_t density_screened = 0;  ///< killed by density screening
};

/// How run_rhf agrees with the other ranks of its SPMD team. Every rank's
/// core makes the same calls in the same order, so an implementation over a
/// communicator issues one collective sequence on every rank. This base
/// class is the one-process identity that run_scf uses.
class ScfLockstep {
 public:
  virtual ~ScfLockstep() = default;
  /// Team-wide sum of this iteration's build counters.
  virtual BuildCounts sum_counts(BuildCounts local) { return local; }
  /// Team-wide max of the RMS density change (one convergence decision).
  virtual double max_density_rms(double rms) { return rms; }
  /// Profiling only: every rank's metrics for this iteration, in rank
  /// order, on the rank that writes the record; empty on the others.
  virtual std::vector<obs::RankIterationMetrics> gather_metrics(
      obs::RankIterationMetrics mine) {
    return {std::move(mine)};
  }
};

/// Run a closed-shell restricted Hartree-Fock SCF.
/// Throws mc::Error for open-shell electron counts.
///
/// `seed_density`: warm-start entry point (DESIGN.md section 15). When
/// null the SCF starts from atomic_guess_density; when non-null it must be
/// an nbf x nbf matrix and replaces that start as the iteration-1 density.
/// The job server seeds repeat (molecule, basis) requests from a
/// previously converged density, cutting the iteration count; a caller
/// who wants the molecular core-Hamiltonian start passes
/// core_guess_density here. Any symmetric density with the right trace
/// works (the SCF fixed point does not depend on the starting guess).
ScfResult run_scf(const chem::Molecule& mol, const basis::BasisSet& bs,
                  FockBuilder& builder, const ScfOptions& options = {},
                  const ScfCallbacks& callbacks = {},
                  const la::Matrix* seed_density = nullptr);

/// The RHF iteration core behind run_scf and each rank of
/// core::run_parallel_scf: one-electron setup, the full-vs-delta Fock
/// reset policy, DIIS, damping, the convergence test and the per-iteration
/// records. `team` keeps the ranks in lockstep. When `profile` is non-null
/// each iteration's metrics are gathered and the writing rank streams the
/// record to it (options.profile_path is left to the caller).
ScfResult run_rhf(const chem::Molecule& mol, const basis::BasisSet& bs,
                  FockBuilder& builder, const ScfOptions& options,
                  ScfLockstep& team, obs::ProfileSession* profile,
                  const ScfCallbacks& callbacks = {},
                  const la::Matrix* seed_density = nullptr);

/// Superposition-free initial guess: diagonalize the core Hamiltonian.
/// Returns the initial density. `x` is the orthogonalizer (X^T S X = 1).
la::Matrix core_guess_density(const la::Matrix& hcore, const la::Matrix& x,
                              int nocc);

/// run_rhf's start: a superposition of atomic densities. Each atom's block
/// comes from its own shells (BasisSet::atom_block) and its own nucleus
/// alone: the one-electron Hamiltonian of that atom, diagonalized in its
/// overlap metric (canonical orthogonalization at `lindep_tolerance`),
/// with its Z electrons filling orbitals in ascending energy, at most two
/// each; a degenerate group (|de| <= 1e-8 max(1, |e|)) shares its
/// electrons equally (carbon 2p: 2/3 each). The block sits on the atom's
/// diagonal block, the off-diagonal atom blocks are zero, and atoms of
/// the same Z and shells share one block, computed once per call. The
/// whole is scaled by nelec / total Z, so Tr(DS) = nelec for a charged
/// molecule too.
la::Matrix atomic_guess_density(const chem::Molecule& mol,
                                const basis::BasisSet& bs, int nelec,
                                double lindep_tolerance);

/// Closed-shell density D = 2 C_occ C_occ^T from MO coefficients.
la::Matrix density_from_coefficients(const la::Matrix& c, int nocc);

}  // namespace mc::scf
