#include "scf/scf_driver.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/memory_tracker.hpp"
#include "common/timer.hpp"
#include "ints/one_electron.hpp"
#include "la/blas_lite.hpp"
#include "la/orthogonalizer.hpp"
#include "la/sym_eig.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scf/diis.hpp"

namespace mc::scf {

la::Matrix density_from_coefficients(const la::Matrix& c, int nocc) {
  MC_CHECK(nocc >= 0 && static_cast<std::size_t>(nocc) <= c.cols(),
           "occupation count out of range");
  const std::size_t n = c.rows();
  la::Matrix cocc(n, static_cast<std::size_t>(nocc));
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = 0; k < nocc; ++k) {
      cocc(i, static_cast<std::size_t>(k)) = c(i, static_cast<std::size_t>(k));
    }
  }
  la::Matrix d = la::gemm_nt(cocc, cocc);
  d *= 2.0;
  return d;
}

la::Matrix core_guess_density(const la::Matrix& hcore, const la::Matrix& x,
                              int nocc) {
  la::SymEigResult eig = la::eigh_generalized(hcore, x);
  return density_from_coefficients(eig.vectors, nocc);
}

namespace {

/// Same shells in the same order: angular momenta, exponents and
/// contractions (centers aside).
bool same_shells(const basis::BasisSet& a, const basis::BasisSet& b) {
  if (a.nshells() != b.nshells()) return false;
  for (std::size_t s = 0; s < a.nshells(); ++s) {
    const basis::Shell& x = a.shell(s);
    const basis::Shell& y = b.shell(s);
    if (x.l != y.l || x.sp != y.sp || x.exps != y.exps ||
        x.coefs != y.coefs || x.coefs_p != y.coefs_p) {
      return false;
    }
  }
  return true;
}

/// One neutral atom's density in its own shells: the orbitals of its
/// one-electron Hamiltonian (its shells and its nucleus alone) take its Z
/// electrons in ascending energy, at most two each, and a degenerate group
/// shares its electrons equally.
la::Matrix atom_density(const basis::BasisSet& block, const chem::Atom& atom,
                        double lindep_tolerance) {
  const chem::Molecule nucleus({atom});
  const la::Matrix s = ints::overlap_matrix(block);
  const la::SymEigResult eig = la::eigh_generalized(
      ints::core_hamiltonian(block, nucleus),
      la::canonical_orthogonalizer(s, lindep_tolerance));
  const std::vector<double>& e = eig.values;
  // Columns scaled by sqrt(occupation), so D = C' C'^T is exactly
  // symmetric.
  la::Matrix c = eig.vectors;
  int left = atom.z;
  std::size_t first = 0;
  while (first < e.size()) {
    std::size_t end = first + 1;
    while (end < e.size() && std::abs(e[end] - e[first]) <=
                                 1e-8 * std::max(1.0, std::abs(e[first]))) {
      ++end;
    }
    const int size = static_cast<int>(end - first);
    const int take = std::min(left, 2 * size);
    const double w = std::sqrt(static_cast<double>(take) / size);
    for (std::size_t k = first; k < end; ++k) {
      for (std::size_t i = 0; i < c.rows(); ++i) c(i, k) *= w;
    }
    left -= take;
    first = end;
  }
  MC_CHECK(left == 0, "atomic start: more electrons than orbitals on Z=" +
                          std::to_string(atom.z));
  return la::gemm_nt(c, c);
}

}  // namespace

la::Matrix atomic_guess_density(const chem::Molecule& mol,
                                const basis::BasisSet& bs, int nelec,
                                double lindep_tolerance) {
  struct Block {
    int z;
    basis::BasisSet shells;
    la::Matrix density;
  };
  std::vector<Block> done;
  la::Matrix d(bs.nbf(), bs.nbf());
  std::size_t offset = 0;
  for (std::size_t a = 0; a < mol.natoms(); ++a) {
    const chem::Atom& atom = mol.atom(a);
    basis::BasisSet shells = bs.atom_block(a);
    std::size_t k = 0;
    while (k < done.size() &&
           (done[k].z != atom.z || !same_shells(done[k].shells, shells))) {
      ++k;
    }
    if (k == done.size()) {
      la::Matrix da = atom_density(shells, atom, lindep_tolerance);
      done.push_back({atom.z, std::move(shells), std::move(da)});
    }
    const la::Matrix& da = done[k].density;
    for (std::size_t i = 0; i < da.rows(); ++i) {
      for (std::size_t j = 0; j < da.cols(); ++j) {
        d(offset + i, offset + j) = da(i, j);
      }
    }
    offset += da.rows();
  }
  MC_CHECK(offset == bs.nbf(),
           "atomic start: the basis is not laid out atom by atom");
  d *= static_cast<double>(nelec) / static_cast<double>(mol.total_z());
  return d;
}

ScfResult run_scf(const chem::Molecule& mol, const basis::BasisSet& bs,
                  FockBuilder& builder, const ScfOptions& options,
                  const ScfCallbacks& callbacks,
                  const la::Matrix* seed_density) {
  // --profile (DESIGN.md section 10). Inside an SPMD body (the test
  // fixtures do this) the record carries the calling rank's slot, so only
  // one rank of a team may profile; the distributed profiled path is
  // core::run_parallel_scf.
  std::unique_ptr<obs::ProfileSession> profile;
  if (!options.profile_path.empty()) {
    profile = std::make_unique<obs::ProfileSession>(options.profile_path);
  }
  ScfLockstep solo;
  return run_rhf(mol, bs, builder, options, solo, profile.get(), callbacks,
                 seed_density);
}

ScfResult run_rhf(const chem::Molecule& mol, const basis::BasisSet& bs,
                  FockBuilder& builder, const ScfOptions& options,
                  ScfLockstep& team, obs::ProfileSession* profile,
                  const ScfCallbacks& callbacks,
                  const la::Matrix* seed_density) {
  const int nelec = mol.nelectrons(options.charge);
  MC_CHECK(nelec > 0, "no electrons");
  MC_CHECK(nelec % 2 == 0,
           "closed-shell RHF requires an even electron count");
  const int nocc = nelec / 2;
  const std::size_t nbf = bs.nbf();
  MC_CHECK(static_cast<std::size_t>(nocc) <= nbf,
           "more electron pairs than basis functions");
  MC_CHECK(options.damping < 1.0, "damping factor must be in [0,1)");

  ScfResult res;
  res.nuclear_repulsion = mol.nuclear_repulsion();

  // The large matrices are tracked, so each rank's replicated copies show
  // in MemoryTracker -- the replication pattern of the GAMESS code. S, H
  // and the orthogonalizer X are one setup span; moving them out of it
  // keeps their tracked allocations.
  const auto [s, h, x] = [&] {
    MC_OBS_TRACE("setup:one_electron");
    la::Matrix overlap(ints::overlap_matrix(bs), "overlap");
    la::Matrix hcore(ints::core_hamiltonian(bs, mol), "hcore");
    la::Matrix orth =
        la::canonical_orthogonalizer(overlap, options.lindep_tolerance);
    return std::tuple{std::move(overlap), std::move(hcore), std::move(orth)};
  }();

  la::Matrix d(nbf, nbf, "density");
  if (seed_density != nullptr) {
    MC_CHECK(seed_density->rows() == nbf && seed_density->cols() == nbf,
             "warm-start seed density has the wrong shape");
    d.copy_values_from(*seed_density);
  } else {
    MC_OBS_TRACE("setup:atomic_guess");
    d.copy_values_from(
        atomic_guess_density(mol, bs, nelec, options.lindep_tolerance));
  }
  la::Matrix g(nbf, nbf, "fock");
  // Incremental-build state: the accumulated *symmetrized* skeleton
  // G_acc = sym(G(D_ref)) + sum sym(G(D_n - D_{n-1})) (symmetrization is
  // linear, so accumulating symmetrized deltas equals symmetrizing the
  // total), the density it corresponds to, and the reset-policy trackers.
  // All of it is updated identically on every rank of a team, so the
  // full-vs-delta decision agrees across ranks -- a divergent decision
  // would deadlock the collectives.
  la::Matrix g_acc(nbf, nbf, "fock_acc");
  la::Matrix d_last(nbf, nbf, "density_last");
  la::Matrix d_delta(nbf, nbf, "density_delta");
  int builds_since_full = 0;
  double err_acc = 0.0;
  Diis diis;

  // Profiling-time state. The predicted total is an O(surviving pairs^2)
  // sweep, identical on every rank. Channel accumulators are global, so
  // per-iteration values are deltas against the previous snapshot.
  const int cur_rank = MemoryTracker::current_rank();
  const int prof_rank = cur_rank < 0 ? 0 : cur_rank;
  const std::size_t predicted_quartets =
      profile != nullptr ? builder.screening_predicted_quartets() : 0;
  double prev_dlb = 0.0;
  double prev_gsum = 0.0;
  double prev_barrier = 0.0;

  double e_prev = 0.0;
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    MC_OBS_TRACE("scf:iteration");
    const bool full_rebuild = !options.incremental_fock || iter == 1 ||
                              builds_since_full >=
                                  options.fock_rebuild_interval ||
                              err_acc > kIncrementalErrorBound;

    // Two-electron (skeleton) Fock accumulation -- the timed hot region.
    // Collective for distributed builders.
    WallTimer fock_timer;
    g.set_zero();
    if (full_rebuild) {
      // Full density, trivial context: static Schwarz screening only, so
      // the rebuild resets the accumulated screening error.
      builder.build(d, g);
      g.symmetrize();
      g_acc.copy_values_from(g);
      builds_since_full = 0;
      err_acc = 0.0;
    } else {
      d_delta.copy_values_from(d);
      d_delta -= d_last;
      FockContext ctx =
          FockContext::from_density(bs, d_delta, /*incremental=*/true);
      ctx.threshold_scale = kIncrementalThresholdScale;
      builder.build(d_delta, g, ctx);
      g.symmetrize();
      g_acc += g;
      ++builds_since_full;
    }
    d_last.copy_values_from(d);
    // Team-summed counters: the screened count feeds err_acc, so every
    // rank must see the same value to take the same rebuild decision.
    const BuildCounts counts = team.sum_counts(
        {builder.last_quartets_computed(), builder.last_density_screened()});
    if (!full_rebuild) {
      // Per-element screening-error estimate for the reset policy: every
      // density-screened quartet contributes below threshold * scale;
      // dividing by nbf approximates the scatter fan-out per element.
      err_acc += builder.screening_threshold() *
                 kIncrementalThresholdScale *
                 static_cast<double>(counts.density_screened) /
                 static_cast<double>(nbf);
    }
    const double t_fock = fock_timer.seconds();
    res.fock_build_seconds += t_fock;

    // F = H + G under its own category: the extrapolated F, DIIS's stored
    // Focks and the result's F are copies of it, not of the core
    // Hamiltonian.
    la::Matrix f(h, "scf_fock");
    f += g_acc;

    // Electronic energy: E = 1/2 sum_ab D_ab (H_ab + F_ab).
    const double e_elec = 0.5 * (la::dot(d, h) + la::dot(d, f));
    const double e_total = e_elec + res.nuclear_repulsion;

    // DIIS error: FDS - SDF, transformed to the orthonormal basis.
    la::Matrix fds = la::gemm(f, la::gemm(d, s));
    la::Matrix err_ao = fds;
    err_ao -= fds.transposed();
    la::Matrix err = la::gemm_tn(x, la::gemm(err_ao, x));

    la::Matrix f_eff = f;
    if (options.use_diis) {
      diis.push(f, err);
      f_eff = diis.extrapolate();
    }

    // Diagonalization is replicated on every rank (as in GAMESS, where it
    // is a known scalability limit -- paper section 2).
    la::SymEigResult eig = la::eigh_generalized(f_eff, x);
    la::Matrix d_new = density_from_coefficients(eig.vectors, nocc);
    if (options.damping > 0.0 && iter > 1) {
      la::Matrix mixed = d_new;
      mixed *= (1.0 - options.damping);
      la::Matrix old = d;
      old *= options.damping;
      mixed += old;
      d_new = std::move(mixed);
    }

    // RMS density change, maximised over the team so every rank takes the
    // same convergence decision.
    double rms = 0.0;
    for (std::size_t i = 0; i < d.size(); ++i) {
      const double dv = d_new.data()[i] - d.data()[i];
      rms += dv * dv;
    }
    rms = team.max_density_rms(std::sqrt(rms / static_cast<double>(d.size())));

    ScfIterationInfo info;
    info.iteration = iter;
    info.energy = e_total;
    info.delta_energy = e_total - e_prev;
    info.density_rms = rms;
    info.fock_build_seconds = t_fock;
    info.full_rebuild = full_rebuild;
    info.quartets_computed = counts.quartets;
    info.density_screened = counts.density_screened;
    res.history.push_back(info);
    if (callbacks.on_iteration) callbacks.on_iteration(info);

    if (profile != nullptr) {
      // This rank's share of the iteration. A team's profiling barriers
      // add to the barrier channel; that time lands in the *next*
      // iteration's delta, a deliberate (and tiny) attribution skew.
      obs::RankIterationMetrics rm;
      rm.rank = prof_rank;
      rm.build = builder.last_stats();
      const double dlb =
          obs::channel_seconds(obs::Channel::kDlbWait, prof_rank);
      const double gsum = obs::channel_seconds(obs::Channel::kGsum, prof_rank);
      const double barrier =
          obs::channel_seconds(obs::Channel::kBarrier, prof_rank);
      rm.dlb_wait_seconds = dlb - prev_dlb;
      rm.gsum_seconds = gsum - prev_gsum;
      rm.barrier_seconds = barrier - prev_barrier;
      prev_dlb = dlb;
      prev_gsum = gsum;
      prev_barrier = barrier;
      rm.peak_bytes = cur_rank >= 0
                          ? MemoryTracker::instance().rank_peak_bytes(cur_rank)
                          : MemoryTracker::instance().peak_bytes();
      std::vector<obs::RankIterationMetrics> ranks =
          team.gather_metrics(std::move(rm));
      if (!ranks.empty()) {
        obs::IterationRecord rec;
        rec.algorithm = builder.name();
        rec.nranks = static_cast<int>(ranks.size());
        rec.iteration = iter;
        rec.energy = e_total;
        rec.delta_energy = info.delta_energy;
        rec.density_rms = rms;
        rec.full_rebuild = full_rebuild;
        rec.fock_seconds = t_fock;
        rec.quartets = info.quartets_computed;
        rec.density_screened = info.density_screened;
        rec.screening_predicted_quartets = predicted_quartets;
        rec.group_order = builder.last_stats().group_order;
        for (const obs::RankIterationMetrics& r : ranks) {
          rec.static_screened += r.build.static_screened;
          rec.symmetry_skipped += r.build.symmetry_skipped;
          const int nthreads =
              static_cast<int>(r.build.thread_quartets.size());
          rec.nthreads = std::max(rec.nthreads, nthreads);
        }
        rec.ranks = std::move(ranks);
        profile->write_iteration(rec);
      }
    }

    d.copy_values_from(d_new);
    res.iterations = iter;
    res.energy = e_total;
    res.electronic_energy = e_elec;
    res.orbital_energies = eig.values;
    res.mo_coefficients = eig.vectors;
    res.fock = std::move(f);

    if (iter > 1 && rms < options.density_tolerance &&
        std::abs(e_total - e_prev) < options.energy_tolerance) {
      res.converged = true;
      break;
    }
    e_prev = e_total;
  }
  res.density = d;  // a tracked copy, alive until the caller's snapshot
  return res;
}

}  // namespace mc::scf
