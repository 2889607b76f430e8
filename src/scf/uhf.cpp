#include "scf/uhf.hpp"

#include <cmath>

#include "common/error.hpp"
#include "ints/one_electron.hpp"
#include "la/blas_lite.hpp"
#include "la/orthogonalizer.hpp"
#include "la/sym_eig.hpp"
#include "scf/diis.hpp"
#include "scf/fock_builder.hpp"

namespace mc::scf {

void build_jk(const ints::EriEngine& eri, const ints::Screening& screen,
              const la::Matrix& d_j, const la::Matrix& d_k, la::Matrix& j,
              la::Matrix& k) {
  const basis::BasisSet& bs = eri.basis_set();
  const std::size_t ns = bs.nshells();
  std::vector<double> batch;
  for (std::size_t si = 0; si < ns; ++si) {
    for (std::size_t sj = 0; sj <= si; ++sj) {
      for_each_kl(si, sj, [&](std::size_t sk, std::size_t sl) {
        if (!screen.keep(si, sj, sk, sl)) return;
        ints::ensure_batch_size(batch, eri.batch_size(si, sj, sk, sl));
        eri.compute(si, sj, sk, sl, batch.data());

        const basis::Shell& shi = bs.shell(si);
        const basis::Shell& shj = bs.shell(sj);
        const basis::Shell& shk = bs.shell(sk);
        const basis::Shell& shl = bs.shell(sl);
        const double w = quartet_degeneracy(si, sj, sk, sl);
        std::size_t idx = 0;
        for (int a = 0; a < shi.nfunc(); ++a) {
          const std::size_t fa = shi.first_bf + static_cast<std::size_t>(a);
          for (int b = 0; b < shj.nfunc(); ++b) {
            const std::size_t fb =
                shj.first_bf + static_cast<std::size_t>(b);
            for (int c = 0; c < shk.nfunc(); ++c) {
              const std::size_t fc =
                  shk.first_bf + static_cast<std::size_t>(c);
              for (int dd = 0; dd < shl.nfunc(); ++dd, ++idx) {
                const double v = batch[idx];
                if (v == 0.0) continue;
                const std::size_t fd =
                    shl.first_bf + static_cast<std::size_t>(dd);
                // Orbit-weighted skeleton (see fock_builder.hpp): Coulomb
                // entry weight w/2, exchange entry weight w/4; both become
                // exact after (M + M^T)/2.
                const double xj = 0.5 * w * v;
                const double xk = 0.25 * w * v;
                j(fa, fb) += xj * d_j(fc, fd);
                j(fc, fd) += xj * d_j(fa, fb);
                k(fa, fc) += xk * d_k(fb, fd);
                k(fb, fd) += xk * d_k(fa, fc);
                k(fa, fd) += xk * d_k(fb, fc);
                k(fb, fc) += xk * d_k(fa, fd);
              }
            }
          }
        }
      });
    }
  }
}

namespace {

la::Matrix spin_density(const la::Matrix& c, int nocc) {
  const std::size_t n = c.rows();
  la::Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t jj = 0; jj < n; ++jj) {
      double s = 0.0;
      for (int o = 0; o < nocc; ++o) {
        s += c(i, static_cast<std::size_t>(o)) *
             c(jj, static_cast<std::size_t>(o));
      }
      d(i, jj) = s;
    }
  }
  return d;
}

// <S^2> = S_z(S_z+1) + N_beta - sum_{i occ_a, j occ_b} |<i_a|S|j_b>|^2.
double s_squared(const la::Matrix& ca, const la::Matrix& cb, int na, int nb,
                 const la::Matrix& s) {
  const double sz = 0.5 * (na - nb);
  double overlap2 = 0.0;
  la::Matrix smo = la::gemm_tn(ca, la::gemm(s, cb));
  for (int i = 0; i < na; ++i) {
    for (int jj = 0; jj < nb; ++jj) {
      const double o = smo(static_cast<std::size_t>(i),
                           static_cast<std::size_t>(jj));
      overlap2 += o * o;
    }
  }
  return sz * (sz + 1.0) + nb - overlap2;
}

}  // namespace

UhfResult run_uhf(const chem::Molecule& mol, const basis::BasisSet& bs,
                  const ints::EriEngine& eri, const ints::Screening& screen,
                  const UhfOptions& opt) {
  const int nelec = mol.nelectrons(opt.charge);
  MC_CHECK(nelec > 0, "no electrons");
  MC_CHECK(opt.multiplicity >= 1, "multiplicity must be >= 1");
  const int nunpaired = opt.multiplicity - 1;
  MC_CHECK((nelec - nunpaired) % 2 == 0 && nelec >= nunpaired,
           "charge/multiplicity inconsistent with electron count");
  const int nbeta = (nelec - nunpaired) / 2;
  const int nalpha = nelec - nbeta;
  const std::size_t nbf = bs.nbf();
  MC_CHECK(static_cast<std::size_t>(nalpha) <= nbf,
           "more alpha electrons than basis functions");

  UhfResult res;
  res.nalpha = nalpha;
  res.nbeta = nbeta;
  res.nuclear_repulsion = mol.nuclear_repulsion();

  const la::Matrix s = ints::overlap_matrix(bs);
  const la::Matrix h = ints::core_hamiltonian(bs, mol);
  const la::Matrix x = la::canonical_orthogonalizer(s, opt.lindep_tolerance);

  // Core guess; optionally mix HOMO/LUMO in the alpha set to break spin
  // symmetry.
  la::SymEigResult guess = la::eigh_generalized(h, x);
  la::Matrix ca = guess.vectors;
  la::Matrix cb = guess.vectors;
  if (opt.guess_mix && static_cast<std::size_t>(nalpha) < nbf &&
      nalpha >= 1) {
    const std::size_t homo = static_cast<std::size_t>(nalpha - 1);
    const std::size_t lumo = static_cast<std::size_t>(nalpha);
    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    for (std::size_t r = 0; r < nbf; ++r) {
      const double ho = ca(r, homo);
      const double lu = ca(r, lumo);
      ca(r, homo) = inv_sqrt2 * (ho + lu);
      ca(r, lumo) = inv_sqrt2 * (ho - lu);
      cb(r, homo) = inv_sqrt2 * (ho - lu);
      cb(r, lumo) = inv_sqrt2 * (ho + lu);
    }
  }
  la::Matrix da = spin_density(ca, nalpha);
  la::Matrix db = spin_density(cb, nbeta);

  // Spin-coupled DIIS: stack (F_a; F_b) and the two error matrices into
  // 2N x N blocks so one set of extrapolation coefficients serves both.
  Diis diis;
  auto stack = [&](const la::Matrix& top, const la::Matrix& bot) {
    la::Matrix out(2 * nbf, nbf);
    for (std::size_t r = 0; r < nbf; ++r) {
      for (std::size_t c = 0; c < nbf; ++c) {
        out(r, c) = top(r, c);
        out(nbf + r, c) = bot(r, c);
      }
    }
    return out;
  };
  auto unstack = [&](const la::Matrix& m, la::Matrix& top, la::Matrix& bot) {
    for (std::size_t r = 0; r < nbf; ++r) {
      for (std::size_t c = 0; c < nbf; ++c) {
        top(r, c) = m(r, c);
        bot(r, c) = m(nbf + r, c);
      }
    }
  };

  double e_prev = 0.0;
  for (int iter = 1; iter <= opt.max_iterations; ++iter) {
    la::Matrix dtot = da;
    dtot += db;

    la::Matrix ja(nbf, nbf), ka(nbf, nbf), kb(nbf, nbf);
    la::Matrix junused(nbf, nbf);
    // One pass accumulates J(D_tot) and K(D_a); a second K-only pass uses
    // a zero J density to get K(D_b) without recomputing integrals twice
    // more. (A fused three-target pass would be a straightforward
    // optimization; clarity wins here.)
    build_jk(eri, screen, dtot, da, ja, ka);
    la::Matrix zero(nbf, nbf);
    build_jk(eri, screen, zero, db, junused, kb);

    ja.symmetrize();
    ka.symmetrize();
    kb.symmetrize();

    la::Matrix fa = h;
    fa += ja;
    fa -= ka;
    la::Matrix fb = h;
    fb += ja;
    fb -= kb;

    const double e_elec = 0.5 * (la::dot(dtot, h) + la::dot(da, fa) +
                                 la::dot(db, fb));
    const double e_total = e_elec + res.nuclear_repulsion;

    // DIIS errors per spin.
    auto err_of = [&](const la::Matrix& f, const la::Matrix& d) {
      la::Matrix fds = la::gemm(f, la::gemm(d, s));
      la::Matrix e = fds;
      e -= fds.transposed();
      return la::gemm_tn(x, la::gemm(e, x));
    };
    la::Matrix f_eff_a = fa;
    la::Matrix f_eff_b = fb;
    if (opt.use_diis) {
      diis.push(stack(fa, fb), stack(err_of(fa, da), err_of(fb, db)));
      la::Matrix f_eff = diis.extrapolate();
      unstack(f_eff, f_eff_a, f_eff_b);
    }

    la::SymEigResult ea = la::eigh_generalized(f_eff_a, x);
    la::SymEigResult eb = la::eigh_generalized(f_eff_b, x);
    la::Matrix da_new = spin_density(ea.vectors, nalpha);
    la::Matrix db_new = spin_density(eb.vectors, nbeta);

    double rms = 0.0;
    for (std::size_t q = 0; q < da.size(); ++q) {
      const double va = da_new.data()[q] - da.data()[q];
      const double vb = db_new.data()[q] - db.data()[q];
      rms += va * va + vb * vb;
    }
    rms = std::sqrt(rms / static_cast<double>(2 * da.size()));

    da = std::move(da_new);
    db = std::move(db_new);
    ca = ea.vectors;
    cb = eb.vectors;
    res.iterations = iter;
    res.energy = e_total;
    res.electronic_energy = e_elec;
    res.orbital_energies_alpha = ea.values;
    res.orbital_energies_beta = eb.values;

    if (iter > 1 && rms < opt.density_tolerance &&
        std::abs(e_total - e_prev) < opt.energy_tolerance) {
      res.converged = true;
      break;
    }
    e_prev = e_total;
  }

  res.s_squared = s_squared(ca, cb, nalpha, nbeta, s);
  res.density_alpha = std::move(da);
  res.density_beta = std::move(db);
  return res;
}

}  // namespace mc::scf
