#include "ints/screening.hpp"

#include <algorithm>
#include <cmath>

#include "common/access.hpp"
#include "common/error.hpp"
#include "common/tsan_annotations.hpp"

namespace mc::ints {

Screening::Screening(const EriEngine& eri, double threshold)
    : nshells_(eri.basis_set().nshells()),
      threshold_(threshold),
      group_(PointGroup::detect(eri.basis_set())) {
  MC_CHECK(threshold > 0.0, "screening threshold must be positive");
  q_.assign(nshells_ * nshells_, 0.0);

  // Canonical-pair decode table: flat index p -> (i, j), i >= j. Built
  // once; the Fock builders' merged-index kl loops use it instead of a
  // per-iteration sqrt decode.
  const std::size_t npairs = nshells_ * (nshells_ + 1) / 2;
  pair_i_.resize(npairs);
  pair_j_.resize(npairs);
  {
    std::size_t p = 0;
    for (std::size_t i = 0; i < nshells_; ++i) {
      for (std::size_t j = 0; j <= i; ++j, ++p) {
        pair_i_[p] = static_cast<std::uint32_t>(i);
        pair_j_[p] = static_cast<std::uint32_t>(j);
      }
    }
  }

  const auto& bs = eri.basis_set();
  // The diagonal (ij|ij) sweep is pure setup but O(nshells^2) ERI batches:
  // parallelize over the flat pair range. Each diagonal is evaluated
  // without the primitive prescreen (EriEngine::compute_diagonal), so a
  // pair with any primitive pair data gets a nonzero bound. The call is
  // reentrant (thread-local scratch) and every iteration writes disjoint
  // q_ entries.
  // The release/acquire pair teaches TSan about libgomp's fork/join edges
  // (see common/tsan_annotations.hpp).
  MC_TSAN_RELEASE(q_.data());
#pragma omp parallel default(shared)
  {
    MC_TSAN_ACQUIRE(q_.data());
    // Every iteration writes a disjoint q_ pair; the slice annotation
    // (common/access.hpp) is the sanctioned route for such exclusive
    // writes to shared state inside a parallel region (MC-OMP-002).
    const acc::OwnedSlice<double> qv(q_.data(), q_.size());
    std::vector<double> batch;
#pragma omp for schedule(dynamic)
    for (long p = 0; p < static_cast<long>(npairs); ++p) {
      const std::size_t s1 = pair_i_[static_cast<std::size_t>(p)];
      const std::size_t s2 = pair_j_[static_cast<std::size_t>(p)];
      ensure_batch_size(batch, eri.batch_size(s1, s2, s1, s2));
      eri.compute_diagonal(s1, s2, batch.data());
      // Diagonal elements (ab|ab) of the batch bound the whole class; take
      // the max over components for a shell-level bound.
      const int n1 = bs.shell(s1).nfunc();
      const int n2 = bs.shell(s2).nfunc();
      double m = 0.0;
      for (int a = 0; a < n1; ++a) {
        for (int b = 0; b < n2; ++b) {
          const std::size_t ab = static_cast<std::size_t>(a) * n2 + b;
          const double v = batch[(ab * n1 + a) * n2 + b];  // (ab|ab)
          m = std::max(m, std::abs(v));
        }
      }
      const double bound = std::sqrt(m);
      qv.set(s1 * nshells_ + s2, bound);
      qv.set(s2 * nshells_ + s1, bound);
    }
    MC_TSAN_RELEASE(q_.data());
  }
  MC_TSAN_ACQUIRE(q_.data());
  MC_TSAN_OMP_QUIESCE();  // fresh workers for the next region under TSan

  for (std::size_t i = 0; i < nshells_; ++i) {
    for (std::size_t j = 0; j <= i; ++j) qmax_ = std::max(qmax_, q(i, j));
  }

  build_pair_lists();
}

void Screening::build_pair_lists() {
  // Compact the statically surviving pairs (anything keep_pair rejects can
  // never clear the quartet bound with any partner).
  sorted_pairs_.clear();
  for (std::size_t p = 0; p < pair_i_.size(); ++p) {
    const std::size_t i = pair_i_[p];
    const std::size_t j = pair_j_[p];
    if (!keep_pair(i, j)) continue;
    sorted_pairs_.push_back({i, j, p, q(i, j)});
  }

  // Largest-first with a deterministic tie-break: every rank sorts the
  // identical data to the identical order, which the shared DLB counter
  // relies on.
  std::sort(sorted_pairs_.begin(), sorted_pairs_.end(),
            [](const ScreenedPair& a, const ScreenedPair& b) {
              if (a.q != b.q) return a.q > b.q;
              return a.canonical < b.canonical;
            });

  // Bra-grouped variant: group pairs by i so the shared-Fock lazy FI flush
  // still fires once per shell; order groups by their estimated kl-loop
  // work (sum of canonical+1 = the merged kl trip counts), heaviest first.
  std::vector<double> shell_work(nshells_, 0.0);
  for (const ScreenedPair& sp : sorted_pairs_) {
    shell_work[sp.i] += static_cast<double>(sp.canonical + 1);
  }
  sorted_bra_shells_.clear();
  for (std::size_t i = 0; i < nshells_; ++i) {
    if (shell_work[i] > 0.0) sorted_bra_shells_.push_back(i);
  }
  std::sort(sorted_bra_shells_.begin(), sorted_bra_shells_.end(),
            [&](std::size_t a, std::size_t b) {
              if (shell_work[a] != shell_work[b]) {
                return shell_work[a] > shell_work[b];
              }
              return a < b;
            });

  bra_grouped_pairs_ = sorted_pairs_;
  std::vector<std::size_t> shell_order(nshells_, 0);
  for (std::size_t r = 0; r < sorted_bra_shells_.size(); ++r) {
    shell_order[sorted_bra_shells_[r]] = r;
  }
  std::sort(bra_grouped_pairs_.begin(), bra_grouped_pairs_.end(),
            [&](const ScreenedPair& a, const ScreenedPair& b) {
              if (a.i != b.i) return shell_order[a.i] < shell_order[b.i];
              if (a.q != b.q) return a.q > b.q;
              return a.canonical < b.canonical;
            });
}

std::size_t Screening::count_surviving_quartets() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < nshells_; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      for (std::size_t k = 0; k <= i; ++k) {
        const std::size_t lmax = (k == i) ? j : k;
        for (std::size_t l = 0; l <= lmax; ++l) {
          if (keep(i, j, k, l)) ++n;
        }
      }
    }
  }
  return n;
}

std::size_t Screening::total_quartets() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < nshells_; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      for (std::size_t k = 0; k <= i; ++k) {
        n += ((k == i) ? j : k) + 1;
      }
    }
  }
  return n;
}

}  // namespace mc::ints
