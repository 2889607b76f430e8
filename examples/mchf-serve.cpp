// mchf-serve -- the HF-as-a-service demo driver (DESIGN.md section 15):
// stands up the multi-tenant SCF job server, feeds it a synthetic
// multi-tenant workload drawn from the built-in molecules, then submits a
// repeat batch so the warm caches show up in the numbers, and prints the
// shutdown summary. With --telemetry PATH every terminal job is streamed
// as one JSON line (the CI serving lane uploads that file as its
// artifact and renders it with tools/serve_summary.py).
//
//   mchf-serve [options]
//     --worlds N        pooled minimpi worlds          (default 2)
//     --ranks R         minimpi ranks per job          (default 2)
//     --threads T       OpenMP threads per rank        (default 1)
//     --jobs N          jobs in the first (cold) batch (default 8)
//     --repeats N       repeat batches over the same molecules (default 1)
//     --queue-depth N   admission bound                (default 64)
//     --tenant-cap N    max pending jobs per tenant, 0 = off (default 0)
//     --algorithm A     mpi | private | shared | dist  (default shared)
//     --basis B         basis for every job            (default STO-3G)
//     --telemetry PATH  append one JSON line per terminal job
//     --cold            no density cache, so no job warm-starts (baseline)
//
// Example:
//   mchf-serve --worlds 2 --ranks 2 --jobs 8 --repeats 2
//              --telemetry serve_jobs.jsonl

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "chem/builders.hpp"
#include "common/error.hpp"
#include "core/memory_model.hpp"
#include "serve/server.hpp"

using namespace mc;

namespace {

struct Args {
  int worlds = 2;
  int ranks = 2;
  int threads = 1;
  int jobs = 8;
  int repeats = 1;
  std::size_t queue_depth = 64;
  std::size_t tenant_cap = 0;
  std::string algorithm = "shared";
  std::string basis = "STO-3G";
  std::string telemetry;
  bool cold = false;
};

[[noreturn]] void usage_and_exit() {
  std::printf(
      "usage: mchf-serve [--worlds N] [--ranks R] [--threads T] [--jobs N]\n"
      "                  [--repeats N] [--queue-depth N] [--tenant-cap N]\n"
      "                  [--algorithm mpi|private|shared|dist] [--basis B]\n"
      "                  [--telemetry PATH] [--cold]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_and_exit();
      return argv[++i];
    };
    if (flag == "--worlds") a.worlds = std::atoi(value().c_str());
    else if (flag == "--ranks") a.ranks = std::atoi(value().c_str());
    else if (flag == "--threads") a.threads = std::atoi(value().c_str());
    else if (flag == "--jobs") a.jobs = std::atoi(value().c_str());
    else if (flag == "--repeats") a.repeats = std::atoi(value().c_str());
    else if (flag == "--queue-depth")
      a.queue_depth = std::strtoul(value().c_str(), nullptr, 10);
    else if (flag == "--tenant-cap")
      a.tenant_cap = std::strtoul(value().c_str(), nullptr, 10);
    else if (flag == "--algorithm") a.algorithm = value();
    else if (flag == "--basis") a.basis = value();
    else if (flag == "--telemetry") a.telemetry = value();
    else if (flag == "--cold") a.cold = true;
    else if (flag == "--help" || flag == "-h") usage_and_exit();
    else {
      std::printf("unknown flag: %s\n", flag.c_str());
      usage_and_exit();
    }
  }
  return a;
}

core::ScfAlgorithm algorithm_of(const std::string& name) {
  if (name == "mpi") return core::ScfAlgorithm::kMpiOnly;
  if (name == "private") return core::ScfAlgorithm::kPrivateFock;
  if (name == "shared") return core::ScfAlgorithm::kSharedFock;
  if (name == "dist") return core::ScfAlgorithm::kDistFock;
  MC_CHECK(false, "unknown algorithm: " + name);
  return core::ScfAlgorithm::kSharedFock;
}

struct Workload {
  const char* label;
  chem::Molecule mol;
};

std::vector<Workload> workload_pool() {
  std::vector<Workload> w;
  w.push_back({"water", chem::builders::water()});
  w.push_back({"methane", chem::builders::methane()});
  w.push_back({"h2", chem::builders::h2()});
  w.push_back({"benzene", chem::builders::benzene()});
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  serve::ServerOptions opt;
  opt.nworlds = args.worlds;
  opt.max_queue_depth = args.queue_depth;
  opt.max_pending_per_tenant = args.tenant_cap;
  if (args.cold) opt.density_cache_capacity = 0;
  opt.telemetry_path = args.telemetry;

  serve::ScfJobServer server(opt);
  const std::vector<Workload> pool = workload_pool();
  const char* tenants[] = {"alice", "bob", "carol"};

  std::vector<long> submitted_ids;
  long rejected = 0;
  const int batches = 1 + (args.repeats > 0 ? args.repeats : 0);
  for (int batch = 0; batch < batches; ++batch) {
    for (int j = 0; j < args.jobs; ++j) {
      const Workload& w = pool[static_cast<std::size_t>(j) % pool.size()];
      serve::JobSpec spec;
      spec.tenant = tenants[static_cast<std::size_t>(j) % 3];
      spec.priority = j % 3;  // mixed priorities exercise dequeue ordering
      spec.molecule_label = w.label;
      spec.mol = w.mol;
      spec.basis = args.basis;
      spec.algorithm = algorithm_of(args.algorithm);
      spec.nranks = args.ranks;
      spec.nthreads = args.threads;
      const serve::SubmitResult r = server.submit(spec);
      if (r.accepted) {
        submitted_ids.push_back(r.job_id);
      } else {
        ++rejected;
        std::printf("job %ld rejected: %s\n", r.job_id, r.reason.c_str());
      }
    }
    // Drain each batch before the next so repeats actually hit the caches.
    for (const long id : submitted_ids) (void)server.wait(id);
  }

  const serve::ServerSummary s = server.shutdown();
  std::printf("\nmchf-serve summary\n");
  std::printf("  worlds               %d (%d used)\n", args.worlds,
              server.worlds_used());
  std::printf("  submitted            %ld (accepted %ld, rejected %ld)\n",
              s.submitted, s.accepted, s.rejected);
  std::printf("  converged            %ld\n", s.converged);
  std::printf("  unconverged          %ld\n", s.unconverged);
  std::printf("  aborted              %ld\n", s.aborted);
  std::printf("  queue wait p50/p95   %.4f / %.4f s\n",
              s.queue_wait_p50_seconds, s.queue_wait_p95_seconds);
  std::printf("  run p50/p95          %.4f / %.4f s\n", s.run_p50_seconds,
              s.run_p95_seconds);
  std::printf("  setup cache          %ld hits / %ld misses\n",
              s.setup_cache_hits, s.setup_cache_misses);
  std::printf("  density cache        %ld hits / %ld misses\n",
              s.density_cache_hits, s.density_cache_misses);
  if (!args.telemetry.empty()) {
    std::printf("  telemetry            %s\n", args.telemetry.c_str());
  }

  // Serving smoke contract: every accepted job must reach a terminal
  // state, and nothing may abort unless faults were injected.
  const bool healthy =
      s.accepted == static_cast<long>(submitted_ids.size()) &&
      s.aborted == 0 && s.unconverged == 0;
  return healthy ? 0 : 1;
}
