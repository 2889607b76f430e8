// Tests of the SCF job server stack (DESIGN.md section 15): the world
// pool, the admission-controlled priority queue, the warm caches and
// their fingerprints, and the server end to end -- including the ISSUE 10
// acceptance gates: a smoke batch of >= 8 concurrent jobs across >= 2
// pooled worlds, clean rejection reporting, and the warm-cache regression
// (a repeat job reaches the same energy in strictly fewer iterations).

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chem/builders.hpp"
#include "common/error.hpp"
#include "core/parallel_scf.hpp"
#include "golden_trajectories.hpp"
#include "par/runtime.hpp"
#include "par/world_pool.hpp"
#include "serve/job_queue.hpp"
#include "serve/server.hpp"
#include "serve/warm_cache.hpp"

namespace {

using mc::testing::kGoldenEnergyTolerance;

// ---------------------------------------------------------------------------
// WorldPool

TEST(WorldPool, RunsEveryTaskAndReportsWorldsUsed) {
  std::atomic<int> next{0};
  std::atomic<int> ran{0};
  const int ntasks = 12;
  mc::par::WorldPool pool(3, [&](int /*world*/) -> mc::par::PooledTask {
    if (next.fetch_add(1) >= ntasks) return {};
    return [&ran] { ran.fetch_add(1); };
  });
  pool.join();
  EXPECT_EQ(ran.load(), ntasks);
  long total = 0;
  for (int w = 0; w < pool.nworlds(); ++w) total += pool.tasks_run(w);
  EXPECT_EQ(total, ntasks);
  EXPECT_GE(pool.worlds_used(), 1);
  EXPECT_LE(pool.worlds_used(), 3);
  EXPECT_EQ(pool.tasks_failed(), 0);
}

TEST(WorldPool, SurvivesThrowingTasks) {
  std::atomic<int> next{0};
  mc::par::WorldPool pool(2, [&](int) -> mc::par::PooledTask {
    const int i = next.fetch_add(1);
    if (i >= 6) return {};
    if (i % 2 == 0) return [] { throw std::runtime_error("task bug"); };
    return [] {};
  });
  pool.join();
  EXPECT_EQ(pool.tasks_failed(), 3);
}

TEST(WorldPool, ConcurrentSpmdWorldsAreAllowed) {
  // The relaxed run_spmd contract behind the pool: two worlds may run
  // SPMD jobs at the same time from different host threads.
  std::atomic<int> peak{0};
  std::atomic<int> next{0};
  mc::par::WorldPool pool(2, [&](int) -> mc::par::PooledTask {
    if (next.fetch_add(1) >= 2) return {};
    return [&peak] {
      mc::par::run_spmd(2, [&peak](mc::par::Comm& comm) {
        const int active = mc::par::active_spmd_worlds();
        int seen = peak.load();
        while (active > seen && !peak.compare_exchange_weak(seen, active)) {
        }
        comm.barrier();
      });
    };
  });
  pool.join();
  EXPECT_EQ(pool.tasks_failed(), 0);
  EXPECT_GE(peak.load(), 1);
}

// ---------------------------------------------------------------------------
// JobQueue

mc::serve::QueuedJob make_job(long id, int priority,
                              const std::string& tenant = "t") {
  mc::serve::QueuedJob j;
  j.id = id;
  j.spec.priority = priority;
  j.spec.tenant = tenant;
  return j;
}

TEST(JobQueue, DequeuesByPriorityThenSubmissionOrder) {
  mc::serve::JobQueue q(16, 0);
  ASSERT_TRUE(q.push(make_job(0, 0)).accepted);
  ASSERT_TRUE(q.push(make_job(1, 5)).accepted);
  ASSERT_TRUE(q.push(make_job(2, 5)).accepted);
  ASSERT_TRUE(q.push(make_job(3, 1)).accepted);
  q.close();
  std::vector<long> order;
  mc::serve::QueuedJob j;
  while (q.pop(j)) order.push_back(j.id);
  EXPECT_EQ(order, (std::vector<long>{1, 2, 3, 0}));
}

TEST(JobQueue, RejectsWhenFullWithReason) {
  mc::serve::JobQueue q(2, 0);
  ASSERT_TRUE(q.push(make_job(0, 0)).accepted);
  ASSERT_TRUE(q.push(make_job(1, 0)).accepted);
  const auto a = q.push(make_job(2, 0));
  EXPECT_FALSE(a.accepted);
  EXPECT_NE(a.reason.find("queue full"), std::string::npos);
  EXPECT_EQ(q.depth(), 2u);
}

TEST(JobQueue, EnforcesPerTenantCap) {
  mc::serve::JobQueue q(16, 1);
  ASSERT_TRUE(q.push(make_job(0, 0, "alice")).accepted);
  const auto a = q.push(make_job(1, 0, "alice"));
  EXPECT_FALSE(a.accepted);
  EXPECT_NE(a.reason.find("alice"), std::string::npos);
  EXPECT_TRUE(q.push(make_job(2, 0, "bob")).accepted);
  // Popping alice's job frees her slot.
  mc::serve::QueuedJob j;
  ASSERT_TRUE(q.pop(j));
  EXPECT_TRUE(q.push(make_job(3, 0, "alice")).accepted);
}

TEST(JobQueue, CloseDrainsAdmittedJobsThenReleasesPoppers) {
  mc::serve::JobQueue q(8, 0);
  ASSERT_TRUE(q.push(make_job(0, 0)).accepted);
  q.close();
  EXPECT_FALSE(q.push(make_job(1, 0)).accepted);
  mc::serve::QueuedJob j;
  EXPECT_TRUE(q.pop(j));   // the admitted job still comes out
  EXPECT_FALSE(q.pop(j));  // then poppers are released
}

// ---------------------------------------------------------------------------
// Warm caches and fingerprints

TEST(WarmCache, FingerprintsSeparateGeometryBasisAndThreshold) {
  const auto water = mc::chem::builders::water();
  const auto methane = mc::chem::builders::methane();
  const auto k1 = mc::serve::setup_fingerprint(water, "STO-3G", {}, 1e-10);
  EXPECT_EQ(k1, mc::serve::setup_fingerprint(water, "STO-3G", {}, 1e-10));
  EXPECT_NE(k1, mc::serve::setup_fingerprint(methane, "STO-3G", {}, 1e-10));
  EXPECT_NE(k1, mc::serve::setup_fingerprint(water, "6-31G", {}, 1e-10));
  EXPECT_NE(k1, mc::serve::setup_fingerprint(water, "STO-3G", {}, 1e-8));
  const std::vector<std::string> mixed = {"STO-3G", "6-31G", "STO-3G"};
  EXPECT_NE(k1, mc::serve::setup_fingerprint(water, "STO-3G", mixed, 1e-10));
  // The density key refines the setup key by charge.
  EXPECT_NE(mc::serve::density_fingerprint(k1, 0),
            mc::serve::density_fingerprint(k1, 2));
}

TEST(WarmCache, LruEvictsOldestAndCountsHits) {
  mc::serve::WarmCache<int> cache(2);
  cache.put(1, std::make_shared<const int>(10));
  cache.put(2, std::make_shared<const int>(20));
  ASSERT_NE(cache.get(1), nullptr);  // refreshes key 1
  cache.put(3, std::make_shared<const int>(30));  // evicts key 2
  EXPECT_EQ(cache.get(2), nullptr);
  ASSERT_NE(cache.get(1), nullptr);
  ASSERT_NE(cache.get(3), nullptr);
  EXPECT_EQ(*cache.get(3), 30);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 4);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(WarmCache, CapacityZeroDisablesCaching) {
  mc::serve::WarmCache<int> cache(0);
  cache.put(1, std::make_shared<const int>(10));
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// ScfJobServer

TEST(ScfJobServer, SmokeBatchRunsConcurrentlyAcrossWorlds) {
  // ISSUE 10 acceptance gate: >= 8 concurrent jobs across >= 2 pooled
  // worlds, every job terminal, zero hangs (the ctest TIMEOUT converts a
  // hang into a failure).
  mc::serve::ServerOptions opt;
  opt.nworlds = 2;
  mc::serve::ScfJobServer server(opt);

  const mc::chem::Molecule mols[] = {
      mc::chem::builders::water(), mc::chem::builders::methane(),
      mc::chem::builders::h2()};
  std::vector<long> ids;
  for (int j = 0; j < 8; ++j) {
    mc::serve::JobSpec spec;
    spec.tenant = (j % 2 == 0) ? "alice" : "bob";
    spec.priority = j % 3;
    spec.mol = mols[j % 3];
    spec.nranks = 2;
    const auto r = server.submit(spec);
    ASSERT_TRUE(r.accepted) << r.reason;
    ids.push_back(r.job_id);
  }
  for (const long id : ids) {
    const auto out = server.wait(id);
    EXPECT_EQ(out.outcome, mc::obs::JobOutcomeKind::kConverged)
        << "job " << id << ": " << out.error;
    EXPECT_GT(out.iterations, 0);
  }
  const auto s = server.shutdown();
  EXPECT_EQ(s.accepted, 8);
  EXPECT_EQ(s.converged, 8);
  EXPECT_EQ(s.rejected, 0);
  EXPECT_EQ(s.aborted, 0);
  EXPECT_GE(server.worlds_used(), 2);
  EXPECT_EQ(server.records().size(), 8u);
}

/// Threads of this process (entries of /proc/self/task), or -1 where that
/// directory does not exist.
long process_threads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  long n = 0;
  for (; it != std::filesystem::directory_iterator(); ++it) ++n;
  return n;
}

TEST(ScfJobServer, ColdSetupsLeaveNoIdleOpenMpTeams) {
  // A cold job builds its setup on the world thread, which lives as long
  // as the server. Its Screening sweep must run at the job's builder
  // width (1 here), not fork a default team of one thread per CPU that
  // then idles: after four cold jobs on distinct molecules the server
  // holds its world threads and nothing more.
  const long before = process_threads();
  if (before < 0) GTEST_SKIP() << "no /proc/self/task on this host";
  mc::serve::ServerOptions opt;
  opt.nworlds = 2;
  mc::serve::ScfJobServer server(opt);

  namespace b = mc::chem::builders;
  const mc::chem::Molecule mols[] = {b::water(), b::methane(), b::h2(),
                                     b::alkane(2)};
  std::vector<long> ids;
  for (int j = 0; j < 4; ++j) {
    mc::serve::JobSpec spec;
    spec.mol = mols[j];
    spec.algorithm = j % 2 == 0 ? mc::core::ScfAlgorithm::kSharedFock
                                : mc::core::ScfAlgorithm::kMpiOnly;
    const auto r = server.submit(spec);
    ASSERT_TRUE(r.accepted) << r.reason;
    ids.push_back(r.job_id);
  }
  for (const long id : ids) {
    const auto out = server.wait(id);
    EXPECT_EQ(out.outcome, mc::obs::JobOutcomeKind::kConverged) << out.error;
    EXPECT_FALSE(out.setup_cache_hit);
  }
  EXPECT_LE(process_threads(), before + opt.nworlds);
  server.shutdown();
}

TEST(ScfJobServer, WarmRepeatConvergesFasterToTheSameEnergy) {
  // The warm-cache regression gate: a repeat (molecule, basis) job is
  // seeded from the cached converged density and must reach the same
  // energy (golden tolerance) in strictly fewer iterations, with both
  // cache-hit flags set.
  mc::serve::ServerOptions opt;
  opt.nworlds = 1;  // serialize so the repeat sees the first job's density
  mc::serve::ScfJobServer server(opt);

  mc::serve::JobSpec spec;
  spec.molecule_label = "water";
  spec.mol = mc::chem::builders::water();
  spec.nranks = 2;

  const auto cold = server.submit(spec);
  ASSERT_TRUE(cold.accepted);
  const auto cold_out = server.wait(cold.job_id);
  ASSERT_EQ(cold_out.outcome, mc::obs::JobOutcomeKind::kConverged);
  EXPECT_FALSE(cold_out.setup_cache_hit);
  EXPECT_FALSE(cold_out.density_cache_hit);

  const auto warm = server.submit(spec);
  ASSERT_TRUE(warm.accepted);
  const auto warm_out = server.wait(warm.job_id);
  ASSERT_EQ(warm_out.outcome, mc::obs::JobOutcomeKind::kConverged);
  EXPECT_TRUE(warm_out.setup_cache_hit);
  EXPECT_TRUE(warm_out.density_cache_hit);
  EXPECT_NEAR(warm_out.energy, cold_out.energy, kGoldenEnergyTolerance);
  EXPECT_LT(warm_out.iterations, cold_out.iterations);

  const auto s = server.shutdown();
  EXPECT_GE(s.setup_cache_hits, 1);
  EXPECT_GE(s.density_cache_hits, 1);
}

TEST(ScfJobServer, ColdModeNeverWarmStarts) {
  mc::serve::ServerOptions opt;
  opt.nworlds = 1;
  opt.density_cache_capacity = 0;
  mc::serve::ScfJobServer server(opt);
  mc::serve::JobSpec spec;
  spec.mol = mc::chem::builders::h2();
  const auto a = server.submit(spec);
  const auto b = server.submit(spec);
  ASSERT_TRUE(a.accepted);
  ASSERT_TRUE(b.accepted);
  const auto out_a = server.wait(a.job_id);
  const auto out_b = server.wait(b.job_id);
  EXPECT_FALSE(out_a.density_cache_hit);
  EXPECT_FALSE(out_b.density_cache_hit);
  EXPECT_TRUE(out_b.setup_cache_hit);  // setup reuse is independent
  EXPECT_EQ(out_a.iterations, out_b.iterations);
  const auto s = server.shutdown();
  EXPECT_EQ(s.density_cache_hits, 0);
  EXPECT_EQ(s.density_cache_misses, 2);  // one lookup per job, none kept
}

TEST(ScfJobServer, RejectsWhenQueueOverflows) {
  // One world busy + tiny queue: overflow submissions come back rejected
  // with the queue-full reason, and their records land in the log.
  mc::serve::ServerOptions opt;
  opt.nworlds = 1;
  opt.max_queue_depth = 1;
  mc::serve::ScfJobServer server(opt);

  mc::serve::JobSpec spec;
  spec.mol = mc::chem::builders::benzene();  // long enough to hold the world
  std::vector<long> accepted;
  long rejected = 0;
  for (int j = 0; j < 8; ++j) {
    const auto r = server.submit(spec);
    if (r.accepted) {
      accepted.push_back(r.job_id);
    } else {
      ++rejected;
      EXPECT_NE(r.reason.find("queue full"), std::string::npos) << r.reason;
      const auto out = server.wait(r.job_id);  // terminal immediately
      EXPECT_EQ(out.outcome, mc::obs::JobOutcomeKind::kRejected);
    }
  }
  for (const long id : accepted) server.wait(id);
  const auto s = server.shutdown();
  EXPECT_EQ(s.submitted, 8);
  EXPECT_EQ(s.rejected, rejected);
  EXPECT_EQ(s.accepted + s.rejected, 8);
  EXPECT_GE(rejected, 1);
}

TEST(ScfJobServer, RejectsInvalidSpecsWithoutRunningThem) {
  mc::serve::ScfJobServer server;

  mc::serve::JobSpec odd;
  odd.mol = mc::chem::builders::water();
  odd.charge = 1;  // odd electron count: not closed-shell
  const auto r1 = server.submit(odd);
  EXPECT_FALSE(r1.accepted);
  EXPECT_NE(r1.reason.find("electron"), std::string::npos) << r1.reason;

  mc::serve::JobSpec profiled;
  profiled.mol = mc::chem::builders::water();
  profiled.scf.profile_path = "/tmp/should-not-happen";
  const auto r2 = server.submit(profiled);
  EXPECT_FALSE(r2.accepted);

  mc::serve::JobSpec mismatched;
  mismatched.mol = mc::chem::builders::water();
  mismatched.basis_per_atom = {"STO-3G"};  // water has 3 atoms
  const auto r3 = server.submit(mismatched);
  EXPECT_FALSE(r3.accepted);

  const auto s = server.shutdown();
  EXPECT_EQ(s.rejected, 3);
  EXPECT_EQ(s.accepted, 0);
}

TEST(ScfJobServer, AbortedJobDoesNotPoisonTheWorld) {
  // A job that throws mid-run (unknown basis name surfaces inside the
  // world, past admission) must come back kAborted while later jobs on
  // the same world still run.
  mc::serve::ServerOptions opt;
  opt.nworlds = 1;
  mc::serve::ScfJobServer server(opt);

  mc::serve::JobSpec bad;
  bad.mol = mc::chem::builders::water();
  bad.basis = "NO-SUCH-BASIS";
  const auto rb = server.submit(bad);
  ASSERT_TRUE(rb.accepted);
  const auto bad_out = server.wait(rb.job_id);
  EXPECT_EQ(bad_out.outcome, mc::obs::JobOutcomeKind::kAborted);
  EXPECT_FALSE(bad_out.error.empty());

  mc::serve::JobSpec good;
  good.mol = mc::chem::builders::water();
  const auto rg = server.submit(good);
  ASSERT_TRUE(rg.accepted);
  EXPECT_EQ(server.wait(rg.job_id).outcome,
            mc::obs::JobOutcomeKind::kConverged);
  const auto s = server.shutdown();
  EXPECT_EQ(s.aborted, 1);
  EXPECT_EQ(s.converged, 1);
}

TEST(ScfJobServer, MixedBasisJobMatchesDirectMixedRun) {
  // The mixed-basis entry point end to end: a served per-atom basis job
  // reproduces a direct run_parallel_scf with the same assignment.
  const auto water = mc::chem::builders::water();
  const std::vector<std::string> mixed = {"6-31G", "STO-3G", "STO-3G"};

  mc::core::ParallelScfConfig config;
  config.basis_per_atom = mixed;
  config.nranks = 1;
  const auto reference = mc::core::run_parallel_scf(water, config);
  ASSERT_TRUE(reference.scf.converged);

  mc::serve::ScfJobServer server;
  mc::serve::JobSpec spec;
  spec.mol = water;
  spec.basis_per_atom = mixed;
  const auto r = server.submit(spec);
  ASSERT_TRUE(r.accepted);
  const auto out = server.wait(r.job_id);
  server.shutdown();
  ASSERT_EQ(out.outcome, mc::obs::JobOutcomeKind::kConverged);
  EXPECT_NEAR(out.energy, reference.scf.energy, kGoldenEnergyTolerance);
}

TEST(ScfJobServer, TelemetryStreamHasOneLinePerTerminalJob) {
  const std::string path =
      ::testing::TempDir() + "test_serve_telemetry.jsonl";
  {
    mc::serve::ServerOptions opt;
    opt.nworlds = 1;
    opt.telemetry_path = path;
    mc::serve::ScfJobServer server(opt);
    mc::serve::JobSpec spec;
    spec.mol = mc::chem::builders::h2();
    const auto a = server.submit(spec);
    const auto b = server.submit(spec);
    ASSERT_TRUE(a.accepted);
    ASSERT_TRUE(b.accepted);
    server.wait(a.job_id);
    server.wait(b.job_id);
    mc::serve::JobSpec invalid;
    invalid.mol = mc::chem::builders::water();
    invalid.charge = 1;
    EXPECT_FALSE(server.submit(invalid).accepted);
    server.shutdown();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  int rejected = 0;
  while (std::getline(in, line)) {
    EXPECT_NE(line.find("\"type\":\"scf_job\""), std::string::npos);
    if (line.find("\"outcome\":\"rejected\"") != std::string::npos) {
      ++rejected;
    }
    ++lines;
  }
  EXPECT_EQ(lines, 3);
  EXPECT_EQ(rejected, 1);
}

TEST(ScfJobServer, ShutdownIsIdempotentAndWaitRejectsUnknownIds) {
  mc::serve::ScfJobServer server;
  EXPECT_THROW(server.wait(0), mc::Error);
  const auto s1 = server.shutdown();
  const auto s2 = server.shutdown();
  EXPECT_EQ(s1.submitted, s2.submitted);
  EXPECT_FALSE(server.submit({}).accepted);  // post-shutdown submissions
}

}  // namespace
