#pragma once
// General-L electron repulsion integral (ERI) engine, McMurchie-Davidson
// scheme. Computes contracted shell quartets (ij|kl) in chemists' notation:
//
//   (ij|kl) = integral phi_i(1) phi_j(1) 1/r12 phi_k(2) phi_l(2)
//
// compute() is const and reentrant: safe to call concurrently from OpenMP
// threads (per-thread scratch is kept in thread_local workspaces). This is
// the property the paper's hybrid algorithms rely on -- the ERI kernel
// itself has no shared mutable state.

#include <cstddef>
#include <vector>

#include "basis/basis_set.hpp"
#include "ints/shell_pair.hpp"

namespace mc::ints {

/// Grow a quartet batch buffer to at least `n` elements WITHOUT clearing
/// (the batched pipeline sizes its other grow-only scratch the same way).
///
/// Output contract: compute_eri_canonical (and therefore EriEngine::
/// compute) fully initializes its output -- every one of the `n` batch
/// elements is zeroed or assigned inside the kernel before it returns.
/// Callers must therefore not pay an O(n) `assign(n, 0.0)` per quartet
/// just to size the buffer; use this helper. The buffer never shrinks, so
/// after the first few quartets the call is a branch and nothing else.
/// Elements beyond `n` are stale -- consumers must index only [0, n).
template <typename T>
void ensure_batch_size(std::vector<T>& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
}

/// Low-level kernel: contracted ERI batch for a bra/ket pair of
/// precomputed ShellPairData, written in canonical orientation
/// [bra.s1][bra.s2][ket.s1][ket.s2]. Fully initializes `out` (see
/// ensure_batch_size); reentrant (thread-local scratch).
/// EriEngine::compute wraps this with the orientation rule
/// (orient_quartet) and index permutation; the knlsim
/// workload model calls it directly to evaluate isolated Schwarz
/// diagonals (ab|ab) without building a full engine.
void compute_eri_canonical(const ShellPairData& bra,
                           const ShellPairData& ket, double* out);

/// One caller quartet (si sj | sk sl) as the kernel evaluates it: which
/// shell pair runs in the outer (bra) loop, and where each caller axis
/// lands in the kernel's [bra.s1][bra.s2][ket.s1][ket.s2] output.
struct OrientedQuartet {
  const ShellPairData* bra = nullptr;  ///< evaluated in the outer loop
  const ShellPairData* ket = nullptr;
  bool in_place = true;  ///< kernel layout already is [i][j][k][l]
  int n[4] = {};                ///< caller extents ni, nj, nk, nl
  std::size_t stride[4] = {};   ///< caller axis -> kernel-output stride
};

/// The orientation rule of both ERI paths (EriEngine::compute and
/// QuartetBatch): which of the caller's shell pairs ij, kl runs in the
/// kernel's outer (bra) loop. The kernel's inner loops run over the bra
/// Hermite triangle, so the pair with the higher Lsum runs outer
/// (DESIGN.md section 12.7). On equal Lsum the pair with the larger
/// canonical index s1 (s1 + 1) / 2 + s2 runs outer, so the builders'
/// canonical quartets (kl <= ij) never flip on a tie. The decision is a
/// function of the unordered quartet alone: (ij|kl) and (kl|ij) make the
/// same kernel call, and their batches are exact transposes.
OrientedQuartet orient_quartet(const ShellPairList& pairs, std::size_t si,
                               std::size_t sj, std::size_t sk,
                               std::size_t sl);

class EriEngine {
 public:
  /// Precomputes shell-pair data for all unique pairs of the basis.
  explicit EriEngine(const basis::BasisSet& bs);

  /// Computes the full Cartesian batch for shells (si sj | sk sl) into
  /// `out`, laid out [a][b][c][d] row-major with a over si's components,
  /// etc. `out` must hold nfunc(si)*nfunc(sj)*nfunc(sk)*nfunc(sl) doubles;
  /// every element is written (callers need not pre-zero the buffer).
  void compute(std::size_t si, std::size_t sj, std::size_t sk,
               std::size_t sl, double* out) const;

  /// The Schwarz diagonal (si sj | si sj), same layout and contract as
  /// compute(), with every primitive quartet evaluated: compute()'s
  /// primitive prescreen can zero a diagonal whose (si sj | sk sl) with a
  /// larger (sk sl) it keeps, and a zero bound would screen those out.
  void compute_diagonal(std::size_t si, std::size_t sj, double* out) const;

  /// Number of doubles compute() writes for this quartet.
  [[nodiscard]] std::size_t batch_size(std::size_t si, std::size_t sj,
                                       std::size_t sk, std::size_t sl) const;

  [[nodiscard]] const basis::BasisSet& basis_set() const { return *bs_; }
  [[nodiscard]] const ShellPairList& pairs() const { return pairs_; }

  /// Approximate FLOP-ish cost weight of a quartet: used by the load-balance
  /// simulator to weight tasks. Proportional to
  /// nprim(ij)*nprim(kl)*ncomp(ij)*ncomp(kl).
  [[nodiscard]] double quartet_cost_weight(std::size_t si, std::size_t sj,
                                           std::size_t sk,
                                           std::size_t sl) const;

 private:
  const basis::BasisSet* bs_;
  ShellPairList pairs_;
};

}  // namespace mc::ints
