#pragma once
// The benchmark's inputs: the four Fock algorithms at four workers, the
// two fixed SCF molecules, and the seeded serve-mix job stream. Everything
// the program receives is generated here from the command line.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "chem/molecule.hpp"
#include "core/parallel_scf.hpp"
#include "serve/job.hpp"

namespace bench {

inline constexpr int kWorkers = 4;

/// One Fock algorithm at the benchmark's worker count: the paper's
/// MPI-only (ranks), private- and shared-Fock (threads of one rank), and
/// the block-distributed builder (ranks).
struct AlgSpec {
  const char* key;  ///< metric suffix: mpi | private | shared | dist
  mc::core::ScfAlgorithm algorithm;
  int nranks;
  int nthreads;
};
[[nodiscard]] const std::vector<AlgSpec>& algorithms();

/// A molecule in a basis, with the label reports use.
struct MoleculeSpec {
  std::string label;
  mc::chem::Molecule mol;
  std::string basis;
};

/// Cold run_parallel_scf configuration for `alg` on `spec`.
[[nodiscard]] mc::core::ParallelScfConfig scf_config(const AlgSpec& alg,
                                                     const MoleculeSpec& spec);

/// A fixed SCF workload and the energy every algorithm must reach.
struct ScfWorkload {
  MoleculeSpec spec;
  /// Pinned converged RHF energy (Eh); NaN when the workload has none (the
  /// smoke molecule), in which case a serial run_scf supplies it.
  double energy;
};
/// "ethane-631gd" or "pentane-sto3g"; `smoke` swaps in water/STO-3G.
[[nodiscard]] ScfWorkload scf_workload(const std::string& name, bool smoke);

inline constexpr double kEnergyTolerance = 1e-8;  // Eh

// --- serve-mix -------------------------------------------------------------

/// Closed-shell molecules the serve-mix clients request. Entry 0 is the
/// reference spec (water/6-31G(d), small enough that set-up and the first
/// builds dominate its SCF): its cold SCFs stand in for scf_s / mem_mib and
/// the per-layer probes on serve-mix.
struct ServeCatalogue {
  std::vector<MoleculeSpec> entries;
  /// Entries [0, jittered) are also requested as geometry jitters. The rest
  /// (ethane/6-31G(d), benzene/STO-3G: 1-2 s cold SCFs) come only as exact
  /// repeats, so the stream stays one of short SCFs and a run holds enough
  /// jobs for steady latency percentiles.
  std::size_t jittered = 0;
};
[[nodiscard]] ServeCatalogue serve_catalogue(bool smoke);

/// The job spec the server receives for a catalogue entry: 2 ranks, the
/// server-default algorithm and SCF options.
[[nodiscard]] mc::serve::JobSpec serve_job_spec(const MoleculeSpec& spec);

/// Submission `i` of the stream for `seed`. In every block of four
/// submissions exactly one is a geometry jitter of a jittered catalogue
/// entry (a miss in both warm caches); the other three repeat catalogue
/// entries exactly. Both streams cycle through seeded permutations of their
/// entries, so every seed asks for the same mix of work.
struct GeneratedJob {
  std::size_t catalogue_index = 0;
  bool repeat = true;
  mc::serve::JobSpec spec;
};
[[nodiscard]] GeneratedJob serve_job(std::uint64_t seed, std::size_t i,
                                     const ServeCatalogue& catalogue);

}  // namespace bench
