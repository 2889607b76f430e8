#pragma once
// DIIS (Pulay's Direct Inversion in the Iterative Subspace) convergence
// accelerator for the SCF loop. GAMESS converges its SCF with DIIS; the
// paper benchmarks wall time over the converged SCF run, so iteration
// counts must be comparable across algorithms -- DIIS makes them so.

#include <deque>

#include "la/matrix.hpp"

namespace mc::scf {

/// Subspace size of the SCF drivers' DIIS (RHF and UHF alike).
inline constexpr std::size_t kDiisMaxVectors = 8;

class Diis {
 public:
  explicit Diis(std::size_t max_vectors = kDiisMaxVectors)
      : max_vectors_(max_vectors) {}

  /// Add the (Fock, error) pair for this iteration; error is typically the
  /// orthonormal-basis commutator X^T (F D S - S D F) X.
  void push(const la::Matrix& fock, const la::Matrix& error);

  /// Extrapolated Fock matrix from the stored history. With fewer than two
  /// stored vectors, returns the last Fock unchanged.
  [[nodiscard]] la::Matrix extrapolate() const;

  [[nodiscard]] std::size_t size() const { return focks_.size(); }
  void clear();

 private:
  std::size_t max_vectors_;
  std::deque<la::Matrix> focks_;
  std::deque<la::Matrix> errors_;
};

}  // namespace mc::scf
