#include "ints/eri.hpp"

#include <algorithm>
#include <vector>

#include "ints/eri_kernel.hpp"
#include "ints/hermite.hpp"

namespace mc::ints {

EriEngine::EriEngine(const basis::BasisSet& bs) : bs_(&bs), pairs_(bs) {}

std::size_t EriEngine::batch_size(std::size_t si, std::size_t sj,
                                  std::size_t sk, std::size_t sl) const {
  return static_cast<std::size_t>(bs_->shell(si).nfunc()) *
         bs_->shell(sj).nfunc() * bs_->shell(sk).nfunc() *
         bs_->shell(sl).nfunc();
}

double EriEngine::quartet_cost_weight(std::size_t si, std::size_t sj,
                                      std::size_t sk, std::size_t sl) const {
  const auto& bra = pairs_.pair(std::max(si, sj), std::min(si, sj));
  const auto& ket = pairs_.pair(std::max(sk, sl), std::min(sk, sl));
  return static_cast<double>(bra.prims.size()) *
         static_cast<double>(ket.prims.size()) * bra.ncomp() * ket.ncomp();
}

OrientedQuartet orient_quartet(const ShellPairList& pairs, std::size_t si,
                               std::size_t sj, std::size_t sk,
                               std::size_t sl) {
  const ShellPairData& ij = pairs.pair(std::max(si, sj), std::min(si, sj));
  const ShellPairData& kl = pairs.pair(std::max(sk, sl), std::min(sk, sl));
  auto pair_index = [](const ShellPairData& p) {
    return p.s1 * (p.s1 + 1) / 2 + p.s2;
  };
  const bool kl_outer = ij.lsum() != kl.lsum()
                            ? kl.lsum() > ij.lsum()
                            : pair_index(kl) > pair_index(ij);
  const bool swap_ij = si < sj;
  const bool swap_kl = sk < sl;

  OrientedQuartet q;
  q.bra = kl_outer ? &kl : &ij;
  q.ket = kl_outer ? &ij : &kl;
  q.in_place = !kl_outer && !swap_ij && !swap_kl;
  q.n[0] = basis::ncart(swap_ij ? ij.l2 : ij.l1);
  q.n[1] = basis::ncart(swap_ij ? ij.l1 : ij.l2);
  q.n[2] = basis::ncart(swap_kl ? kl.l2 : kl.l1);
  q.n[3] = basis::ncart(swap_kl ? kl.l1 : kl.l2);
  // pos[a]: the kernel-output axis caller axis a maps to.
  int pos[4] = {swap_ij ? 1 : 0, swap_ij ? 0 : 1, swap_kl ? 3 : 2,
                swap_kl ? 2 : 3};
  if (kl_outer) {
    for (int& p : pos) p = (p + 2) % 4;
  }
  int ext[4];
  for (int a = 0; a < 4; ++a) ext[pos[a]] = q.n[a];
  std::size_t kstride[4];
  std::size_t s = 1;
  for (int x = 3; x >= 0; --x) {
    kstride[x] = s;
    s *= static_cast<std::size_t>(ext[x]);
  }
  for (int a = 0; a < 4; ++a) q.stride[a] = kstride[pos[a]];
  return q;
}

void compute_eri_canonical(const ShellPairData& bra,
                           const ShellPairData& ket, double* out) {
  // Per-thread scratch: G accumulator, gathered R matrix, and a reused
  // Hermite Coulomb table (no allocations in the quartet loop).
  thread_local std::vector<double> g;
  thread_local std::vector<double> rmat;
  thread_local RTable r;
  detail::ScalarPrimSource src;
  src.ltot = (bra.l1 + bra.l2) + (ket.l1 + ket.l2);
  detail::eri_quartet_kernel(bra, ket, src, g, rmat, r, out);
}

void EriEngine::compute(std::size_t si, std::size_t sj, std::size_t sk,
                        std::size_t sl, double* out) const {
  const OrientedQuartet q = orient_quartet(pairs_, si, sj, sk, sl);
  if (q.in_place) {
    compute_eri_canonical(*q.bra, *q.ket, out);
    return;
  }
  thread_local std::vector<double> tmp;
  ensure_batch_size(tmp, batch_size(si, sj, sk, sl));
  compute_eri_canonical(*q.bra, *q.ket, tmp.data());
  detail::permute_to_caller(tmp.data(), q, out);
}

}  // namespace mc::ints
