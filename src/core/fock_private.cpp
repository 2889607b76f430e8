#include "core/fock_private.hpp"

#include <omp.h>

#include <vector>

#include "common/access.hpp"
#include "common/error.hpp"
#include "common/memory_tracker.hpp"
#include "common/tsan_annotations.hpp"
#include "ints/eri_batch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mc::core {

void FockBuilderPrivate::build(const la::Matrix& density, la::Matrix& g,
                               const scf::FockContext& ctx) {
  MC_OBS_TRACE("fock:private");
  const scf::QuartetCascade cascade = begin_build(density, ctx);
  const basis::BasisSet& bs = eri_->basis_set();
  const std::size_t nbf = bs.nbf();
  MC_CHECK(g.rows() == nbf && g.cols() == nbf, "G shape mismatch");
  MC_CHECK(opt_.nthreads >= 1, "need at least one thread");

  // The MPI DLB counter claims positions in the Screening's work-sorted
  // bra-shell list (heaviest i first; shells with no surviving pair are
  // absent) instead of raw shell indices -- same largest-first rationale
  // as Algorithm 1's sorted pair list, at i-shell granularity.
  const auto& bra_order = screen_->sorted_bra_shells();
  const long nlist = static_cast<long>(bra_order.size());
  ddi_->dlb_reset();

  const int nt = opt_.nthreads;
  const int rank = ddi_->rank();
  std::vector<scf::BuildStats> thread_stats(static_cast<std::size_t>(nt));
  std::vector<la::Matrix*> thread_g(static_cast<std::size_t>(nt), nullptr);
  long shared_i = 0;

  // Shadow-ownership verifier (MC_CHECK builds; DESIGN.md section 11.3).
  // Algorithm 2 touches far less shared state than Algorithm 3: the rank
  // Fock matrix (written only in the row-chunked reduction), the matrix
  // pointer slots, and the per-thread counter slots.
  acc::BuildChecker<> checker(rank, nt);
  const int reg_g = checker.region("G", g.size());
  const int reg_slots = checker.region("thread_g", thread_g.size());
  const int reg_ts = checker.region("thread_stats", thread_stats.size());

  // Team-shared, read-only for the whole region.
  const acc::SharedReadOnly<const la::Matrix&> den(density);

  // The master's claim: the next list position whose shell i has a pair
  // (i, j) the cascade keeps, or one past the list. A symmetry-unique
  // build keeps no pair of many shells; such a shell costs the team no
  // barrier, and the master counts its pairs' quartets alone, as the
  // team's (j, k) sweep would have.
  const auto claim = [&]() {
    long pos = ddi_->dlbnext();  // MPI DLB: get new I task
    for (; pos < nlist; pos = ddi_->dlbnext()) {
      ++stats_.pairs_claimed;
      const std::size_t i = bra_order[static_cast<std::size_t>(pos)];
      bool kept = false;
      for (std::size_t j = 0; j <= i && !kept; ++j) {
        kept = cascade.keep_pair(i, j);
      }
      if (kept) break;
      for (std::size_t j = 0; j <= i; ++j) cascade.keep_pair(i, j, stats_);
    }
    return pos;
  };

  omp_set_schedule(opt_.dynamic_schedule ? omp_sched_dynamic
                                         : omp_sched_static,
                   1);

  // Team fork/join edges for TSan (libgomp's futex-based handoff is
  // invisible to it); see common/tsan_annotations.hpp.
  MC_TSAN_RELEASE(&shared_i);
#pragma omp parallel num_threads(nt) default(shared)
  {
    MC_TSAN_ACQUIRE(&shared_i);
    const int tid = omp_get_thread_num();
    // OpenMP workers do not inherit the rank thread's memory attribution;
    // scope it so thread-private buffers are charged to this rank.
    RankScope rank_scope(rank);
    acc::ThreadCtx<> th(checker, tid);
    // The master is the rank thread: it alone charges its team-barrier
    // waits to the rank's barrier channel.
    const auto team_barrier = [&]() {
      const obs::ScopedChannelTimer wait(obs::Channel::kBarrier, rank,
                                         tid == 0);
      MC_PROTOCOL_BARRIER(&shared_i, th);
    };
    // The thread-private replicated Fock matrix: the memory cost that
    // distinguishes Algorithm 2 (eq. 3b) from Algorithm 3 (eq. 3c).
    la::Matrix gp(nbf, nbf, "fock_thread_private");
    {
      // Publish this thread's copy for the end-of-region reduction:
      // distinct slot per thread, claimed through the checked slice.
      const acc::OwnedSlice<la::Matrix*> slots(thread_g.data(),
                                               thread_g.size(), &th,
                                               reg_slots, 0);
      slots.set(static_cast<std::size_t>(tid), &gp);
    }
    // Thread-private quartet batch for the batched ERI pipeline: digesting
    // into the private gp needs no synchronization, so flushes may happen
    // at any point before the end-of-region reduction.
    ints::QuartetBatch batch(*eri_);
    scf::BuildStats mine;

    for (;;) {
#pragma omp master
      shared_i = claim();
      team_barrier();
      const long claimed = shared_i;
      if (claimed >= nlist) break;
      const long i =
          static_cast<long>(bra_order[static_cast<std::size_t>(claimed)]);
      th.set_task(claimed);
      // One span per claimed i task per thread: the per-thread lanes of
      // the chrome trace make the (j,k) load split visible directly.
      MC_OBS_TRACE("fock:private:i_task");

      // OpenMP parallelization over the combined (j,k) loops; joining the
      // loops provides a larger task pool (paper section 4.3).
#pragma omp for collapse(2) schedule(runtime) nowait
      for (long j = 0; j <= i; ++j) {
        for (long k = 0; k <= i; ++k) {
          const auto si = static_cast<std::size_t>(i);
          const auto sj = static_cast<std::size_t>(j);
          const auto sk = static_cast<std::size_t>(k);
          cascade.for_each_kept_in_row(
              si, sj, sk, mine, [&](std::size_t sl, unsigned w) {
                // Queue for batched evaluation; digest updates the
                // *private* 2e-Fock matrix, so no synchronization on
                // flush either.
                batch.add(si, sj, sk, sl, 0, w);
                if (batch.full()) {
                  scf::scatter_batch(bs, batch, den.get(), gp);
                }
              });
        }
      }
      // Keeps the team in lockstep with the master: iteration N's reads of
      // shared_i must be ordered before the master's iteration-N+1 rewrite.
      team_barrier();
    }
    // Drain quartets queued by the final i tasks before gp is reduced.
    scf::scatter_batch(bs, batch, den.get(), gp);
    {
      // Distinct slot per thread; the master folds them after the join
      // (published by the region-edge TSAN annotations).
      const acc::OwnedSlice<scf::BuildStats> ts(thread_stats.data(),
                                                thread_stats.size(), &th,
                                                reg_ts, 0);
      ts.set(static_cast<std::size_t>(tid), mine);
    }

    // Reduce the thread-private copies into the rank matrix, row-chunked so
    // threads write disjoint cache lines.
    team_barrier();
    const acc::OwnedSlice<double> g_acc(g.data(), g.size(), &th, reg_g, 0);
#pragma omp for schedule(static) nowait
    for (long row = 0; row < static_cast<long>(nbf); ++row) {
      const acc::OwnedSlice<double> grow =
          g_acc.slice(static_cast<std::size_t>(row) * nbf, nbf);
      for (int t = 0; t < nt; ++t) {
        const double* prow =
            thread_g[static_cast<std::size_t>(t)]->row(
                static_cast<std::size_t>(row));
        for (std::size_t c = 0; c < nbf; ++c) grow.add(c, prow[c]);
      }
    }
    // Nobody frees gp before the reduction completes.
    team_barrier();
    MC_TSAN_RELEASE(&shared_i);
  }
  MC_TSAN_ACQUIRE(&shared_i);
  MC_TSAN_OMP_QUIESCE();  // fresh workers for the next region under TSan
  for (const scf::BuildStats& t : thread_stats) stats_.add_thread(t);

  // Surface any recorded ownership violation before the cross-rank
  // reduction publishes a corrupted matrix.
  checker.finalize();

  // 2e-Fock matrix reduction over MPI ranks, then every rank expands the
  // reduced symmetry-unique skeleton alike.
  ddi_->gsumf(g);
  cascade.project(g);
}

}  // namespace mc::core
