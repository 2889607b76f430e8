#pragma once
// The paper's asymptotic per-node memory-footprint model (eqs. 3a-3c):
//
//   M_MPI = 5/2 * N^2 * N_mpi_per_node                      (eq. 3a)
//   M_PrF = (2 + N_threads) * N^2 * N_mpi_per_node          (eq. 3b)
//   M_ShF = 7/2 * N^2 * N_mpi_per_node                      (eq. 3c)
//
// with N the number of basis functions and sizes in doubles. This module
// evaluates the model for arbitrary configurations (Table 2), and computes
// the maximum feasible ranks-per-node under a memory capacity -- the
// mechanism that caps the MPI-only code at 128 hardware threads on a
// 192 GB KNL node (Figure 4) and makes the 5 nm dataset shared-Fock-only
// (Figure 7).

#include <cstddef>
#include <string>

namespace mc::core {

enum class ScfAlgorithm { kMpiOnly, kPrivateFock, kSharedFock, kDistFock };

std::string algorithm_name(ScfAlgorithm alg);

struct NodeLayout {
  int ranks_per_node = 1;
  int threads_per_rank = 1;
};

/// Paper eqs. 3a-3c: bytes per node for `nbf` basis functions. For
/// kDistFock (this repo's Algorithm 4, not in the paper) this is the
/// single-node evaluation of model_dist_fock_bytes_per_node below.
double model_bytes_per_node(ScfAlgorithm alg, std::size_t nbf,
                            const NodeLayout& layout);

/// Block-distributed Fock model (DESIGN.md section 13): the D and F
/// windows hold 2 N^2 / N_total_ranks doubles per rank (so a node's
/// ranks together hold 2 N^2 / N_nodes), plus about N^2 / 2 of
/// *node-shared* working set -- the driver's gathered G / iterated
/// density, which minimpi ranks share by construction (they are threads
/// of one process) and a multi-node port would place in an MPI-3
/// shared-memory window; symmetric, so half storage. Per node:
///
///   M_Dist = N^2 * (2 * N_mpi_per_node / N_total_ranks + 1/2)
///          = N^2 * (2 / N_nodes + 1/2)
///
/// Unlike eqs. 3a-3c this does not grow with ranks-per-node and
/// *decreases* with node count -- the terms the replicated algorithms
/// cannot shed -- which is what makes the paper's 5 nm / 30,240-BF
/// dataset fit MCDRAM at scale (knlsim experiment 8).
double model_dist_fock_bytes_per_node(std::size_t nbf,
                                      const NodeLayout& layout, int nnodes);

/// Largest ranks-per-node that fits `capacity_bytes`, assuming the node's
/// `hw_threads` hardware threads are split evenly (threads_per_rank =
/// hw_threads / ranks). Returns 0 if even one rank does not fit.
/// For the MPI-only algorithm threads_per_rank is pinned to 1 and ranks
/// may not exceed hw_threads.
NodeLayout max_feasible_layout(ScfAlgorithm alg, std::size_t nbf,
                               double capacity_bytes, int hw_threads);

/// Memory-footprint ratio of the MPI-only code at `mpi_ranks` ranks/node to
/// the given hybrid algorithm at `hybrid` layout (the paper's "about 50x /
/// 200x less footprint" comparison).
double footprint_ratio_vs_mpi(ScfAlgorithm hybrid_alg,
                              const NodeLayout& hybrid, std::size_t nbf,
                              int mpi_ranks);

}  // namespace mc::core
