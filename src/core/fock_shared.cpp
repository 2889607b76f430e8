#include "core/fock_shared.hpp"

#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/access.hpp"
#include "ints/eri_batch.hpp"
#include "common/error.hpp"
#include "common/memory_tracker.hpp"
#include "common/tsan_annotations.hpp"
#include "obs/trace.hpp"

namespace mc::core {

namespace {

/// Chunked parallel reduction of one buffer (all thread columns) into the
/// shell-s stripe of the shared Fock matrix, then per-thread re-zeroing.
/// Must be called by every thread of the team (contains worksharing
/// constructs). This is the tree-reduction flush of the paper's Figure 1B;
/// the "column" of the paper's Fortran storage is the row stripe
/// g(off+a, :) in our row-major matrices, which also keeps the raw
/// skeleton bit-comparable with the serial reference scatter.
///
/// Access protocol (annotated via the types, verified under MC_CHECK):
/// cross-thread reads of the lanes via TeamBuffer::read, exclusive column
/// writes into the shared matrix via OwnedSlice::add, a barrier, then the
/// owner's lane re-zero -- all reads done before anyone re-zeroes.
void flush_buffer(const acc::TeamBuffer<double>& buf,
                  const acc::ThreadPrivate<double>& mine, int nt,
                  const basis::Shell& sh, std::size_t nbf,
                  const acc::OwnedSlice<double>& f_acc,
                  acc::ThreadCtx<>& th, const volatile void* tag) {
  const int nf = sh.nfunc();
  const std::size_t off = sh.first_bf;
#pragma omp for schedule(static) nowait
  for (long col = 0; col < static_cast<long>(nbf); ++col) {
    const auto c = static_cast<std::size_t>(col);
    for (int a = 0; a < nf; ++a) {
      double sum = 0.0;
      for (int t = 0; t < nt; ++t) {
        sum += buf.read(t, static_cast<std::size_t>(a) * nbf + c);
      }
      f_acc.add((off + static_cast<std::size_t>(a)) * nbf + c, sum);
    }
  }
  // All reads done before anyone re-zeroes. Annotated (rather than the
  // worksharing construct's implicit barrier) so TSan sees the ordering
  // between cross-thread buffer reads and the owner's re-zeroing writes;
  // the same barrier advances the shadow ledger's epoch.
  MC_PROTOCOL_BARRIER(tag, th);
  mine.zero(static_cast<std::size_t>(nf) * nbf);
  MC_PROTOCOL_BARRIER(tag, th);
}

/// One shell row of a thread's FI or FJ lane: lane row a holds the
/// contributions to F[off + a, :] of the lane's shell.
struct LaneRow {
  const acc::ThreadPrivate<double>* lane;
  std::size_t base;
  void add(std::size_t c, double v) const { lane->add(base + c, v); }
};

/// Algorithm 3's route for the six updates of scf::scatter_updates:
/// F_ij, F_ik, F_il into the thread's FI lane, F_jl, F_jk into its FJ
/// lane, and F_kl straight into the shared Fock matrix -- threads hold
/// distinct kl, so the written row stripes are disjoint (MC_CHECK
/// verifies it).
struct SharedRoute {
  const acc::ThreadPrivate<double>& fi;
  const acc::ThreadPrivate<double>& fj;
  const acc::OwnedSlice<double>& f;
  const la::Matrix& density;
  std::size_t nbf;
  [[nodiscard]] LaneRow f_i(int a, std::size_t /*fa*/) const {
    return {&fi, static_cast<std::size_t>(a) * nbf};
  }
  [[nodiscard]] LaneRow f_j(int b, std::size_t /*fb*/) const {
    return {&fj, static_cast<std::size_t>(b) * nbf};
  }
  [[nodiscard]] acc::OwnedSlice<double> f_k(int /*c*/, std::size_t fc) const {
    return f.slice(fc * nbf, nbf);
  }
  [[nodiscard]] const double* d(std::size_t r) const {
    return density.row(r);
  }
};

}  // namespace

void FockBuilderShared::build(const la::Matrix& density, la::Matrix& g,
                              const scf::FockContext& ctx) {
  MC_OBS_TRACE("fock:shared");
  const scf::QuartetCascade cascade = begin_build(ctx);
  const basis::BasisSet& bs = eri_->basis_set();
  const std::size_t nbf = bs.nbf();
  // The MPI DLB counter walks the Screening's bra-grouped pair list:
  // already compacted to Schwarz survivors, grouped by i shell (so the
  // lazy FI flush still fires at most once per i group) with the heaviest
  // groups first.
  const auto& bra_pairs = screen_->bra_grouped_pairs();
  const std::size_t nlist = bra_pairs.size();
  MC_CHECK(g.rows() == nbf && g.cols() == nbf, "G shape mismatch");
  MC_CHECK(opt_.nthreads >= 1, "need at least one thread");

  ddi_->dlb_reset();
  fi_flushes_ = 0;

  const int nt = opt_.nthreads;
  std::vector<scf::BuildStats> thread_stats(static_cast<std::size_t>(nt));
  // mxsize = ubound(Fock) * shellSize (+ padding against false sharing);
  // one column per thread (Algorithm 3 lines 1-3).
  const std::size_t col_stride =
      nbf * static_cast<std::size_t>(bs.max_shell_size()) +
      static_cast<std::size_t>(opt_.padding_doubles);
  TrackedBuffer fi("fock_fi_buffer", col_stride * static_cast<std::size_t>(nt));
  TrackedBuffer fj("fock_fj_buffer", col_stride * static_cast<std::size_t>(nt));

  // Shadow-ownership verifier (MC_CHECK builds; DESIGN.md section 11.3):
  // the shared Fock matrix, both team buffers, and the per-thread counter
  // slots are registered as checked regions. In normal builds BuildChecker
  // is an empty type and every hook below compiles to nothing.
  acc::BuildChecker<> checker(ddi_->rank(), nt);
  const int reg_f = checker.region("F", g.size());
  const int reg_fi = checker.region("FI", fi.size());
  const int reg_fj = checker.region("FJ", fj.size());
  const int reg_ts = checker.region("thread_stats", thread_stats.size());

  // The density is team-shared and read-only for the whole region; the
  // type has no mutating accessor, so a misrouted update cannot compile.
  const acc::SharedReadOnly<const la::Matrix&> den(density);

  // Per-iteration decisions are taken once, by the master thread, and
  // published through these shared slots. Threads snapshot them between
  // two barriers, so the whole team always agrees on which worksharing
  // constructs the iteration executes. (Evaluating "did i change?" per
  // thread against a mutable iold is a divergence race: a fast thread can
  // update the state before a slow one reads it, deadlocking the team.)
  struct IterPlan {
    long ij = 0;
    bool skip = false;          // pair prescreened out
    long flush_shell = -1;      // FI flush target shell, or -1
  };
  IterPlan plan;
  long iold = -1;  // previous i index; owned by the master thread

  omp_set_schedule(opt_.dynamic_schedule ? omp_sched_dynamic
                                         : omp_sched_static,
                   1);

  // Team fork/join edges: libgomp hands threads off through futexes TSan
  // cannot see, so publish the pre-region state (density, buffers, plan)
  // to the workers and the workers' final writes back to the master.
  MC_TSAN_RELEASE(&plan);
#pragma omp parallel num_threads(nt) default(shared)
  {
    MC_TSAN_ACQUIRE(&plan);
    const int tid = omp_get_thread_num();
    // OpenMP workers do not inherit the rank thread's attribution; scope it
    // so trace events and tracked buffers land on this rank's lane.
    RankScope rank_scope(ddi_->rank());
    // Per-thread protocol views: the thread's own FI/FJ lanes (mutable
    // only through these handles), the whole-lane-array views for the
    // flush reduction, and the shared-Fock window for the direct F_kl
    // updates whose exclusivity the kl loop guarantees.
    acc::ThreadCtx<> th(checker, tid);
    const acc::TeamBuffer<double> fi_buf(fi.data(), nt, col_stride, &th,
                                         reg_fi);
    const acc::TeamBuffer<double> fj_buf(fj.data(), nt, col_stride, &th,
                                         reg_fj);
    const acc::ThreadPrivate<double> fi_lane = fi_buf.lane(tid);
    const acc::ThreadPrivate<double> fj_lane = fj_buf.lane(tid);
    const acc::OwnedSlice<double> f_acc(g.data(), g.size(), &th, reg_f, 0);
    // Thread-private quartet batch of the batched ERI pipeline. The digest
    // scatters each entry through this thread's route, after th.set_task
    // on the entry's kl tag so the shadow ledger attributes the F_kl
    // writes to the kl task that owns them. Every batch is drained before
    // the end-of-kl-loop barrier: the direct F_kl writes rely on this
    // thread's exclusive ownership of its claimed kl values, which only
    // holds inside that epoch.
    const SharedRoute route{fi_lane, fj_lane, f_acc, den.get(), nbf};
    ints::QuartetBatch qbatch(*eri_);
    auto digest_batch = [&]() {
      qbatch.evaluate();
      for (std::size_t qi = 0; qi < qbatch.size(); ++qi) {
        const ints::QuartetBatch::Entry& e = qbatch.quartets()[qi];
        th.set_task(static_cast<long>(e.tag));
        scf::scatter_updates(bs, e.si, e.sj, e.sk, e.sl, qbatch.result(qi),
                             route);
      }
      qbatch.clear();
    };
    scf::BuildStats mine;

    for (;;) {
#pragma omp master
      {
        plan.ij = ddi_->dlbnext();  // MPI DLB: get new list position
        plan.skip = false;
        plan.flush_shell = -1;
        if (plan.ij < static_cast<long>(nlist)) {
          ++stats_.pairs_claimed;
          const ints::ScreenedPair& pr =
              bra_pairs[static_cast<std::size_t>(plan.ij)];
          // The ij prescreen of Algorithm 3 line 13 (its static half is
          // already baked into the list).
          plan.skip = !cascade.keep_pair(pr.i, pr.j);
          if (!plan.skip) {
            // Lazy FI flush: only when the i index changed since the last
            // unscreened pair (Algorithm 3 lines 15-18).
            if (static_cast<long>(pr.i) != iold || !opt_.lazy_fi_flush) {
              plan.flush_shell = iold;
              if (plan.flush_shell >= 0) ++fi_flushes_;
            }
            iold = static_cast<long>(pr.i);
          }
        }
      }
      MC_PROTOCOL_BARRIER(&plan, th);
      const IterPlan my_plan = plan;
      // All snapshots taken before the master's next rewrite.
      MC_PROTOCOL_BARRIER(&plan, th);
      if (my_plan.ij >= static_cast<long>(nlist)) break;
      if (my_plan.skip) continue;
      th.set_task(my_plan.ij);

      // One span per claimed ij pair per thread: the per-thread lanes of
      // the chrome trace make the kl-loop load split visible directly.
      MC_OBS_TRACE("fock:shared:ij_task");
      const ints::ScreenedPair& my_pair =
          bra_pairs[static_cast<std::size_t>(my_plan.ij)];
      const std::size_t i = my_pair.i;
      const std::size_t j = my_pair.j;
      // Canonical pair index of (i,j); the kl loop stays triangular over
      // canonical pair indices regardless of the list's claim order.
      const long ij = static_cast<long>(my_pair.canonical);
      const basis::Shell& shj = bs.shell(j);

      if (my_plan.flush_shell >= 0) {
        flush_buffer(fi_buf, fi_lane, nt,
                     bs.shell(static_cast<std::size_t>(my_plan.flush_shell)),
                     nbf, f_acc, th, fi.data());
      }

#pragma omp for schedule(runtime) nowait
      for (long kl = 0; kl <= ij; ++kl) {
        th.set_task(kl);
        const auto [k, l] =
            screen_->pair_shells(static_cast<std::size_t>(kl));
        if (!cascade.keep(i, j, k, l, mine)) continue;
        // Queue (i,j|k,l); the kl tag routes the digest's F_kl writes back
        // to this task in the shadow ledger.
        qbatch.add(i, j, k, l, static_cast<std::uint64_t>(kl));
        if (qbatch.full()) digest_batch();
      }
      // Drain before the epoch ends: F_kl exclusivity only holds until the
      // end-of-kl-loop barrier below.
      digest_batch();
      // End of kl loop (nowait + explicit barrier): orders the direct
      // shared-Fock F_kl writes against the FJ flush that follows.
      MC_PROTOCOL_BARRIER(&plan, th);

      // Flush FJ after every kl loop (Algorithm 3 line 31).
      flush_buffer(fj_buf, fj_lane, nt, shj, nbf, f_acc, th, fj.data());
    }

    // Flush the remaining FI contribution (Algorithm 3 line 36). iold was
    // last written by the master before the loop-exit barriers, so every
    // thread observes the same final value here.
    if (iold >= 0) {
      flush_buffer(fi_buf, fi_lane, nt,
                   bs.shell(static_cast<std::size_t>(iold)), nbf, f_acc, th,
                   fi.data());
#pragma omp master
      ++fi_flushes_;
    }

    // Distinct slot per thread, claimed through the checked slice; the
    // master folds them after the join (published by the region-edge TSAN
    // annotations).
    const acc::OwnedSlice<scf::BuildStats> ts(thread_stats.data(),
                                              thread_stats.size(), &th,
                                              reg_ts, 0);
    ts.set(static_cast<std::size_t>(tid), mine);
    MC_TSAN_RELEASE(&plan);
  }
  MC_TSAN_ACQUIRE(&plan);
  MC_TSAN_OMP_QUIESCE();  // fresh workers for the next region under TSan
  for (const scf::BuildStats& t : thread_stats) stats_.add_thread(t);

  // Surface any recorded ownership violation before the cross-rank
  // reduction publishes a corrupted matrix.
  checker.finalize();

  // 2e-Fock matrix reduction over MPI ranks.
  ddi_->gsumf(g);
}

}  // namespace mc::core

namespace mc::check {
// This TU's kAccessChecked reflects the library's build mode, which is what
// tests need to know before asserting on builder-driven ledgers.
bool core_hooks_compiled() { return acc::kAccessChecked; }
}  // namespace mc::check
