#include "core/fock_shared.hpp"

#include <omp.h>

#include <cstdint>
#include <vector>

#include "common/access.hpp"
#include "ints/eri_batch.hpp"
#include "common/error.hpp"
#include "common/memory_tracker.hpp"
#include "common/tsan_annotations.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mc::core {

namespace {

/// QuartetBatch capacity of each thread in a team (nthreads > 1): a thread
/// evaluates the quartets of the kl values it claimed before it claims
/// many more, so schedule(dynamic,1) balances ERI work, not kl claims. A
/// lone thread keeps ints::kDefaultBatchCapacity (DESIGN.md 8.1).
constexpr std::size_t kTeamBatchCapacity = 2;

/// Doubles appended to each thread's FI/FJ column: one 64-byte cache line,
/// so the column owners' flush does not false-share (paper section 4.3).
constexpr std::size_t kLanePadding = 8;

/// Column-owner flush of one shell stripe of a team buffer (the reduction
/// of the paper's Figure 1B): the owner of column c sums every lane's
/// element c of each shell row into F and zeroes it (TeamBuffer::take).
/// The paper's Fortran "column" is the row stripe g(off+a, :) here.
void flush_column(const acc::TeamBuffer<double>& buf, const basis::Shell& sh,
                  std::size_t nbf, std::size_t c,
                  const acc::OwnedSlice<double>& f_acc) {
  for (int a = 0; a < sh.nfunc(); ++a) {
    const auto row = static_cast<std::size_t>(a);
    double sum = 0.0;
    for (int t = 0; t < buf.lanes(); ++t) sum += buf.take(t, row * nbf + c);
    f_acc.add((sh.first_bf + row) * nbf + c, sum);
  }
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
  const scf::QuartetCascade cascade = begin_build(density, ctx);
  const basis::BasisSet& bs = eri_->basis_set();
  const std::size_t nbf = bs.nbf();
  // The MPI DLB counter walks the Screening's bra-grouped pair list:
  // already compacted to Schwarz survivors, grouped by i shell (so the
  // lazy FI flush still fires at most once per i group) with the heaviest
  // groups first.
  const auto& bra_pairs = screen_->bra_grouped_pairs();
  const long nlist = static_cast<long>(bra_pairs.size());
  MC_CHECK(g.rows() == nbf && g.cols() == nbf, "G shape mismatch");
  MC_CHECK(opt_.nthreads >= 1, "need at least one thread");

  ddi_->dlb_reset();
  fi_flushes_ = 0;

  const int nt = opt_.nthreads;
  const int rank = ddi_->rank();
  std::vector<scf::BuildStats> thread_stats(static_cast<std::size_t>(nt));
  // mxsize = ubound(Fock) * shellSize (+ padding against false sharing);
  // one column per thread (Algorithm 3 lines 1-3).
  const std::size_t col_stride =
      nbf * static_cast<std::size_t>(bs.max_shell_size()) + kLanePadding;
  TrackedBuffer fi("fock_fi_buffer", col_stride * static_cast<std::size_t>(nt));
  TrackedBuffer fj("fock_fj_buffer", col_stride * static_cast<std::size_t>(nt));

  // Shadow-ownership verifier (MC_CHECK builds; DESIGN.md section 11.3):
  // the shared Fock matrix, both team buffers, and the per-thread counter
  // slots are registered as checked regions. In normal builds BuildChecker
  // is an empty type and every hook below compiles to nothing.
  acc::BuildChecker<> checker(rank, nt);
  const int reg_f = checker.region("F", g.size());
  const int reg_fi = checker.region("FI", fi.size());
  const int reg_fj = checker.region("FJ", fj.size());
  const int reg_ts = checker.region("thread_stats", thread_stats.size());

  // The density is team-shared and read-only for the whole region; the
  // type has no mutating accessor, so a misrouted update cannot compile.
  const acc::SharedReadOnly<const la::Matrix&> den(density);

  // The master's claim: the next list position whose pair passes the ij
  // prescreen of Algorithm 3 line 13 (and, symmetry-unique, is the largest
  // of its orbit), or one past the list. A dropped pair costs the team no
  // barrier; the master counts a symmetry-dropped pair's quartets alone.
  const auto claim = [&]() {
    long pos = ddi_->dlbnext();  // MPI DLB: get new list position
    for (; pos < nlist; pos = ddi_->dlbnext()) {
      ++stats_.pairs_claimed;
      const ints::ScreenedPair& pr = bra_pairs[static_cast<std::size_t>(pos)];
      if (cascade.keep_pair(pr.i, pr.j, stats_)) break;
    }
    return pos;
  };
  // Claim-ahead plan slots: the master claims into slot[cur ^ 1] while the
  // team works on slot[cur]; a slot is rewritten two barriers after its
  // last read, so the team always agrees on which worksharing constructs
  // run (a per-thread decision against mutable master state could diverge
  // and deadlock the team).
  long slot[2] = {0, 0};

  omp_set_schedule(opt_.dynamic_schedule ? omp_sched_dynamic
                                         : omp_sched_static,
                   1);

  // Team fork/join edges: libgomp hands threads off through futexes TSan
  // cannot see, so publish the pre-region state (density, buffers, plan)
  // to the workers and the workers' final writes back to the master.
  MC_TSAN_RELEASE(slot);
#pragma omp parallel num_threads(nt) default(shared)
  {
    MC_TSAN_ACQUIRE(slot);
    const int tid = omp_get_thread_num();
    // OpenMP workers do not inherit the rank thread's attribution; scope it
    // so trace events and tracked buffers land on this rank's lane.
    RankScope rank_scope(rank);
    acc::ThreadCtx<> th(checker, tid);
    // The master is the rank thread: it alone charges its team-barrier
    // waits to the rank's barrier channel.
    const auto team_barrier = [&]() {
      const obs::ScopedChannelTimer wait(obs::Channel::kBarrier, rank,
                                         tid == 0);
      MC_PROTOCOL_BARRIER(slot, th);
    };
    // Per-thread protocol views: the thread's own FI/FJ lanes (mutable
    // only through these handles), the whole-lane-array views for the
    // column-owner flush, and the shared-Fock window for the direct F_kl
    // updates whose exclusivity the kl loop guarantees.
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
    ints::QuartetBatch qbatch(
        *eri_, nt > 1 ? kTeamBatchCapacity : ints::kDefaultBatchCapacity);
    auto digest_batch = [&]() {
      qbatch.evaluate();
      for (std::size_t qi = 0; qi < qbatch.size(); ++qi) {
        const ints::QuartetBatch::Entry& e = qbatch.quartets()[qi];
        th.set_task(static_cast<long>(e.tag));
        scf::scatter_updates(bs, e.si, e.sj, e.sk, e.sl, e.weight,
                             qbatch.result(qi), route);
      }
      qbatch.clear();
    };
    scf::BuildStats mine;

#pragma omp master
    slot[0] = claim();
    for (int cur = 0;; cur ^= 1) {
      // Start barrier: publishes the first claim, and orders the previous
      // flush's F writes and lane zeroing before this kl loop.
      team_barrier();
      const long pos = slot[cur];
      if (pos >= nlist) break;

      // One span per claimed ij pair per thread: the per-thread lanes of
      // the chrome trace make the kl-loop load split visible directly.
      MC_OBS_TRACE("fock:shared:ij_task");
      const ints::ScreenedPair& my_pair =
          bra_pairs[static_cast<std::size_t>(pos)];
      const std::size_t i = my_pair.i;
      const std::size_t j = my_pair.j;
      // Canonical pair index of (i,j); the kl loop stays triangular over
      // canonical pair indices regardless of the list's claim order.
      const long ij = static_cast<long>(my_pair.canonical);

#pragma omp for schedule(runtime) nowait
      for (long kl = 0; kl <= ij; ++kl) {
        th.set_task(kl);
        const auto [k, l] =
            screen_->pair_shells(static_cast<std::size_t>(kl));
        const unsigned w = cascade.keep(i, j, k, l, mine);
        if (w == 0) continue;
        // Queue (i,j|k,l); the kl tag routes the digest's F_kl writes back
        // to this task in the shadow ledger.
        qbatch.add(i, j, k, l, static_cast<std::uint64_t>(kl), w);
        if (qbatch.full()) digest_batch();
      }
      digest_batch();
      // Claim ahead, after the master's own kl share.
#pragma omp master
      slot[cur ^ 1] = claim();
      // End-of-kl barrier: orders the direct F_kl writes and every lane
      // write before the flush, and publishes the next claim.
      team_barrier();

      // Flush FJ after every kl loop (Algorithm 3 line 31), and FI with it
      // only when the next pair's i differs or the list is done (the lazy
      // flush of lines 15-18 and 36). One static column split serves both,
      // so on a diagonal pair one thread writes both stripes.
      const long next = slot[cur ^ 1];
      const bool flush_fi =
          next >= nlist || bra_pairs[static_cast<std::size_t>(next)].i != i;
#pragma omp master
      if (flush_fi) ++fi_flushes_;
      th.set_task(pos);
#pragma omp for schedule(static) nowait
      for (long col = 0; col < static_cast<long>(nbf); ++col) {
        const auto c = static_cast<std::size_t>(col);
        flush_column(fj_buf, bs.shell(j), nbf, c, f_acc);
        if (flush_fi) flush_column(fi_buf, bs.shell(i), nbf, c, f_acc);
      }
    }

    // Distinct slot per thread, claimed through the checked slice; the
    // master folds them after the join (published by the region-edge TSAN
    // annotations).
    const acc::OwnedSlice<scf::BuildStats> ts(thread_stats.data(),
                                              thread_stats.size(), &th,
                                              reg_ts, 0);
    ts.set(static_cast<std::size_t>(tid), mine);
    MC_TSAN_RELEASE(slot);
  }
  MC_TSAN_ACQUIRE(slot);
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

namespace mc::check {
// This TU's kAccessChecked reflects the library's build mode, which is what
// tests need to know before asserting on builder-driven ledgers.
bool core_hooks_compiled() { return acc::kAccessChecked; }
}  // namespace mc::check
