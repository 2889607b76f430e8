#pragma once
// One run of a workload, per kind of workload.

#include <cstdint>
#include <string>

#include "report.hpp"

namespace bench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;  ///< measuring time budget of the run
  bool trace = false;     ///< per-layer (traced) run instead of end-to-end
  bool smoke = false;     ///< tiny inputs, one repetition
  std::string out_dir;    ///< span file and ERI cost table land here
};

/// ethane-631gd / pentane-sto3g: cold SCF per algorithm.
void run_scf_workload(const RunOptions& opt, Report& report, Tally& tally);
/// serve-mix: closed-loop clients against the job server.
void run_serve_workload(const RunOptions& opt, Report& report, Tally& tally);

/// Every serve.* per-layer metric as 0, for workloads without a server.
void report_serve_absent(Report& report);

}  // namespace bench
