#pragma once
// Calls into each layer of the SCF stack through its public functions,
// timed by the benchmark's own spans: setup (basis, ERI engine,
// screening, one-electron), cold run_parallel_scf, and the traced
// per-layer probes (run_scf, Fock builders, batched ERI sweep, la, DIIS).

#include <map>
#include <string>
#include <vector>

#include "core/parallel_scf.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace bench {

struct SetupTimes {
  double basis_s = 0.0;
  double eri_engine_s = 0.0;
  double screening_s = 0.0;
  double one_electron_s = 0.0;  ///< overlap + core Hamiltonian + X
  [[nodiscard]] double total() const {
    return basis_s + eri_engine_s + screening_s + one_electron_s;
  }
};

/// Build and discard the setup of `spec`, returning the timings.
[[nodiscard]] SetupTimes time_setup(const MoleculeSpec& spec);

/// Untimed set-ups of `spec` for `seconds`: wakes the worker threads and
/// cores before anything is timed, so the first samples of a run are not
/// slower than the rest.
void warm_up(const MoleculeSpec& spec, double seconds);

/// Per-part and total medians over setup samples.
struct SetupStats {
  SetupTimes median_parts;
  double median_total_s = 0.0;
};
[[nodiscard]] SetupStats summarize_setup(const std::vector<SetupTimes>& v);

/// One cold run_parallel_scf (each rank builds its own setup), timed from
/// call to converged result.
struct ColdRun {
  double wall_s = 0.0;
  mc::core::ParallelScfResult result;
};
[[nodiscard]] ColdRun run_cold(const AlgSpec& alg, const MoleculeSpec& spec);

/// Cold-SCF samples per algorithm, reported as medians: scf_s.<alg> (wall)
/// and mem_mib.<alg> (tracked peak bytes summed over ranks, the paper's
/// node footprint).
class ScfSamples {
 public:
  void add(const AlgSpec& alg, const ColdRun& run);
  void report(Report& report) const;
  /// Cold SCFs added, over all algorithms.
  [[nodiscard]] std::size_t count() const;

 private:
  std::map<std::string, std::vector<double>> wall_s_;
  std::map<std::string, std::vector<double>> mem_mib_;
};

/// Converged, and within kEnergyTolerance of `energy`.
[[nodiscard]] bool energy_ok(const mc::scf::ScfResult& r, double energy);
/// Serial run_scf energy of `spec` (the reference for unpinned molecules).
[[nodiscard]] double serial_energy(const MoleculeSpec& spec);

/// The traced per-layer probes on `spec`: ints.*, fock.*, par.*, scf.*,
/// la.*, mem.* and obs.overhead_frac. `setup_total_s` is the median setup
/// time subtracted for scf.other_s; `reps` is the least number of repeats
/// of each timed build (more when a build is short). The
/// per-class ERI cost table goes to `cost_table_path`.
void probe_scf_layers(const MoleculeSpec& spec, double energy,
                      double setup_total_s, int reps,
                      const std::string& cost_table_path, Report& report,
                      Tally& tally);

/// Record setup.* per-layer metrics.
void report_setup_layers(const SetupTimes& t, Report& report);

}  // namespace bench
