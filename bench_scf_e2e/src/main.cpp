// bench_scf_e2e: the end-to-end SCF benchmark binary. Usually launched through
// run.py, which builds it and checks the build fingerprint first.
//
//   bench_scf_e2e --workload ethane-631gd|pentane-sto3g|serve-mix
//                 --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//
// The last line of stdout is the result: {"correct", "attempted",
// "failed", "metrics"}; --trace 0 reports the end-to-end metrics, --trace 1
// the per-layer ones and writes DIR/spans-<workload>-seed<N>.json.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.hpp"
#include "spans.hpp"
#include "workload_runs.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_scf_e2e: %s\nusage: bench_scf_e2e --workload "
               "ethane-631gd|pentane-sto3g|serve-mix --seed N --seconds S "
               "--trace 0|1 [--smoke] [--out DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(MC_SANITIZE_NAME) || defined(MC_ACCESS_CHECK)
  std::fprintf(stderr,
               "bench_scf_e2e: refusing to measure an instrumented build "
               "(sanitizer or MC_CHECK)\n");
  return 3;
#endif
  bench::RunOptions opt;
  opt.out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--out") {
      opt.out_dir = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  const bool scf = opt.workload == "ethane-631gd" ||
                   opt.workload == "pentane-sto3g";
  if (!scf && opt.workload != "serve-mix") {
    return usage(("unknown workload '" + opt.workload + "'").c_str());
  }

  bench::set_spans_enabled(opt.trace);
  bench::Report report;
  bench::Tally tally;
  try {
    if (scf) {
      bench::run_scf_workload(opt, report, tally);
    } else {
      bench::run_serve_workload(opt, report, tally);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_scf_e2e: %s\n", e.what());
    return 1;
  }

  for (const std::string& f : tally.failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }
  if (opt.trace) {
    const std::string path = opt.out_dir + "/spans-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".json";
    const std::string meta =
        "{\"workload\": " + bench::json_string(opt.workload) +
        ", \"seed\": " + std::to_string(opt.seed) +
        ", \"smoke\": " + (opt.smoke ? "true" : "false") + "}";
    if (!bench::write_spans(path, meta)) {
      std::fprintf(stderr, "bench_scf_e2e: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "spans: %s\nself seconds by layer: %s\n",
                 path.c_str(), bench::self_seconds_by_layer_json().c_str());
  }
  std::printf("%s\n", report.result_json(tally).c_str());
  return 0;
}
