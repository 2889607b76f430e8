// bench_serve -- serving-lane throughput harness (DESIGN.md section 15.5):
// measures what the warm caches and the world pool buy on a repeat-heavy
// workload, the serving analogue of the paper's per-iteration tables.
//
// Three configurations over the same job list (a round-robin of built-in
// molecules, submitted `repeats` times):
//   cold        1 world, caches disabled  -- the sequential baseline
//   warm        1 world, caches enabled   -- isolates the cache effect
//   warm-pool   N worlds, caches enabled  -- adds concurrency
//
// Reported per configuration: wall seconds, jobs/s, mean SCF iterations
// per job, cache hit counts. Usage:
//   bench_serve [--worlds N] [--ranks R] [--jobs N] [--repeats N]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "chem/builders.hpp"
#include "common/timer.hpp"
#include "serve/server.hpp"

using namespace mc;

namespace {

struct Config {
  const char* name;
  int worlds;
  bool warm;
};

struct RunStats {
  double wall_seconds = 0.0;
  double jobs_per_second = 0.0;
  double mean_iterations = 0.0;
  long setup_hits = 0;
  long density_hits = 0;
};

RunStats run_config(const Config& c, int ranks, int jobs, int repeats) {
  serve::ServerOptions opt;
  opt.nworlds = c.worlds;
  opt.max_queue_depth = static_cast<std::size_t>(jobs * repeats + 1);
  opt.setup_cache_capacity = c.warm ? 16 : 0;
  opt.density_cache_capacity = c.warm ? 32 : 0;
  serve::ScfJobServer server(opt);

  std::vector<chem::Molecule> pool = {
      chem::builders::water(), chem::builders::methane(),
      chem::builders::h2()};
  const char* labels[] = {"water", "methane", "h2"};

  WallTimer timer;
  std::vector<long> ids;
  for (int rep = 0; rep < repeats; ++rep) {
    for (int j = 0; j < jobs; ++j) {
      serve::JobSpec spec;
      spec.molecule_label = labels[static_cast<std::size_t>(j) % pool.size()];
      spec.mol = pool[static_cast<std::size_t>(j) % pool.size()];
      spec.nranks = ranks;
      const serve::SubmitResult r = server.submit(spec);
      if (r.accepted) ids.push_back(r.job_id);
    }
  }
  long iterations = 0;
  for (const long id : ids) iterations += server.wait(id).iterations;
  const double wall = timer.seconds();
  const serve::ServerSummary s = server.shutdown();

  RunStats stats;
  stats.wall_seconds = wall;
  stats.jobs_per_second = ids.empty() ? 0.0 : static_cast<double>(ids.size()) / wall;
  stats.mean_iterations =
      ids.empty() ? 0.0
                  : static_cast<double>(iterations) /
                        static_cast<double>(ids.size());
  stats.setup_hits = s.setup_cache_hits;
  stats.density_hits = s.density_cache_hits;
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  int worlds = 4;
  int ranks = 1;
  int jobs = 6;
  int repeats = 3;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const int v = std::atoi(argv[i + 1]);
    if (flag == "--worlds") worlds = v;
    else if (flag == "--ranks") ranks = v;
    else if (flag == "--jobs") jobs = v;
    else if (flag == "--repeats") repeats = v;
  }

  const Config configs[] = {
      {"cold", 1, false},
      {"warm", 1, true},
      {"warm-pool", worlds, true},
  };

  std::printf("bench_serve: %d jobs x %d repeats, %d ranks/job\n\n", jobs,
              repeats, ranks);
  std::printf("%-10s %10s %10s %12s %11s %13s\n", "config", "wall(s)",
              "jobs/s", "mean iters", "setup hits", "density hits");
  double cold_wall = 0.0;
  for (const Config& c : configs) {
    const RunStats s = run_config(c, ranks, jobs, repeats);
    if (std::string(c.name) == "cold") cold_wall = s.wall_seconds;
    std::printf("%-10s %10.3f %10.2f %12.2f %11ld %13ld", c.name,
                s.wall_seconds, s.jobs_per_second, s.mean_iterations,
                s.setup_hits, s.density_hits);
    if (cold_wall > 0.0 && std::string(c.name) != "cold") {
      std::printf("   (%.2fx vs cold)", cold_wall / s.wall_seconds);
    }
    std::printf("\n");
  }
  return 0;
}
