#include "ints/eri_batch.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "ints/boys.hpp"
#include "ints/eri_kernel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mc::ints {

QuartetBatch::QuartetBatch(const EriEngine& eng, std::size_t capacity)
    : eng_(&eng), capacity_(capacity) {
  MC_CHECK(capacity_ > 0, "QuartetBatch capacity must be positive");
  entries_.reserve(capacity_);
}

void QuartetBatch::add(std::size_t si, std::size_t sj, std::size_t sk,
                       std::size_t sl, std::uint64_t tag) {
  MC_CHECK(!full(), "QuartetBatch::add on a full batch (flush first)");
  Entry e;
  e.si = static_cast<std::uint32_t>(si);
  e.sj = static_cast<std::uint32_t>(sj);
  e.sk = static_cast<std::uint32_t>(sk);
  e.sl = static_cast<std::uint32_t>(sl);
  e.tag = tag;
  e.offset = results_size_;
  e.size = eng_->batch_size(si, sj, sk, sl);
  results_size_ += e.size;
  entries_.push_back(e);
}

void QuartetBatch::evaluate() {
  if (entries_.empty()) return;
  ensure_batch_size(results_, results_size_);

  // Orient every entry once (the rule EriEngine::compute applies too), and
  // bucket it by the caller's class (l_i + l_j, l_k + l_l): buckets and the
  // per-class counters keep the caller's view, while the kernel
  // instantiation follows the evaluated orientation.
  const ShellPairList& pairs = eng_->pairs();
  const basis::BasisSet& bs = eng_->basis_set();
  oriented_.resize(entries_.size());
  for (std::uint32_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    oriented_[i] = orient_quartet(pairs, e.si, e.sj, e.sk, e.sl);
    const int key = (bs.shell(e.si).l + bs.shell(e.sj).l) * kClassDim +
                    bs.shell(e.sk).l + bs.shell(e.sl).l;
    if (buckets_[static_cast<std::size_t>(key)].empty()) {
      used_keys_.push_back(key);
    }
    buckets_[static_cast<std::size_t>(key)].push_back(i);
  }

  for (const int key : used_keys_) {
    std::vector<std::uint32_t>& bucket =
        buckets_[static_cast<std::size_t>(key)];
    evaluate_class(key / kClassDim, key % kClassDim, bucket);
    bucket.clear();
  }
  used_keys_.clear();
}

void QuartetBatch::evaluate_class(int lbra, int lket,
                                  const std::vector<std::uint32_t>& idxs) {
  const bool timed = obs::metrics_enabled();
  const std::uint64_t t0 = timed ? obs::monotonic_ns() : 0;

  const int ltot = lbra + lket;

  // Phase 1: sweep the primitive-pair loops once, recording per primitive
  // quartet the prescreen verdict and, for survivors, the Boys argument
  // plus the geometry the kernel needs (pref, alpha, PQ) -- all in
  // entry-then-primitive enumeration order of the evaluated orientation,
  // the exact order phase 3 replays. Phase 3 then never recomputes
  // prim_geom (one sqrt + divide per primitive quartet for the whole
  // pipeline). The buffers are sized once for the group's primitive
  // quartet count (every one a potential survivor) and written through
  // pointers.
  std::size_t nprim = 0;
  for (const std::uint32_t i : idxs) {
    const OrientedQuartet& q = oriented_[i];
    nprim += q.bra->prims.size() * q.ket->prims.size();
  }
  constexpr std::size_t kGeomStride = detail::BatchedPrimSource::kGeomStride;
  ensure_batch_size(surv_, nprim);
  ensure_batch_size(t_buf_, nprim);
  ensure_batch_size(geom_buf_, nprim * kGeomStride);
  std::uint8_t* surv = surv_.data();
  double* tb = t_buf_.data();
  double* geom = geom_buf_.data();
  std::size_t nsurv = 0;
  for (const std::uint32_t i : idxs) {
    const OrientedQuartet& q = oriented_[i];
    for (const PrimPairData& bp : q.bra->prims) {
      for (const PrimPairData& kp : q.ket->prims) {
        const detail::PrimGeom pg = detail::prim_geom(bp, kp);
        const bool skip = detail::prim_skipped(bp, kp, pg.pref);
        *surv++ = static_cast<std::uint8_t>(!skip);
        if (skip) continue;
        tb[nsurv] = pg.t;
        double* rec = geom + nsurv * kGeomStride;
        rec[0] = pg.pref;
        rec[1] = pg.alpha;
        rec[2] = pg.pq[0];
        rec[3] = pg.pq[1];
        rec[4] = pg.pq[2];
        ++nsurv;
      }
    }
  }

  // Phase 2: one batched Boys evaluation for the whole class group.
  if (nsurv > 0) {
    ensure_batch_size(fm_buf_,
                      static_cast<std::size_t>(ltot + 1) * nsurv);
    boys_batch(ltot, nsurv, t_buf_.data(), fm_buf_.data());
  }

  // Phase 3: per-quartet kernel replaying phase-1 verdicts/geometry and
  // consuming the Boys columns in lockstep.
  detail::BatchedPrimSource src;
  src.fm = fm_buf_.data();
  src.n = nsurv;
  src.survived = surv_.data();
  src.geom = geom_buf_.data();
  for (const std::uint32_t i : idxs) {
    const Entry& e = entries_[i];
    const OrientedQuartet& q = oriented_[i];
    double* dst = results_.data() + e.offset;
    if (q.in_place) {
      detail::eri_quartet_kernel(*q.bra, *q.ket, src, g_, rmat_, r_, dst);
    } else {
      ensure_batch_size(tmp_, e.size);
      detail::eri_quartet_kernel(*q.bra, *q.ket, src, g_, rmat_, r_,
                                 tmp_.data());
      detail::permute_to_caller(tmp_.data(), q, dst);
    }
  }
  MC_CHECK(src.cursor == nsurv && src.flag_cursor == nprim,
           "batched ERI pipeline consumed a different primitive-quartet "
           "count than it collected");

  if (timed) {
    obs::add_eri_class(lbra, lket, idxs.size(), nsurv,
                       obs::monotonic_ns() - t0);
  }
}

void QuartetBatch::clear() {
  entries_.clear();
  results_size_ = 0;
}

}  // namespace mc::ints
