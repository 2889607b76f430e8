#include "basis/basis_set.hpp"

#include <algorithm>
#include <utility>

#include "basis/basis_library.hpp"
#include "common/error.hpp"

namespace mc::basis {

BasisSet::BasisSet(std::vector<Shell> shells, std::string name)
    : shells_(std::move(shells)), name_(std::move(name)) {
  for (Shell& sh : shells_) {
    sh.first_bf = nbf_;
    nbf_ += static_cast<std::size_t>(sh.nfunc());
  }
}

BasisSet BasisSet::build(const chem::Molecule& mol,
                         const std::string& basis_name) {
  return build_mixed(
      mol, std::vector<std::string>(mol.natoms(), basis_name));
}

BasisSet BasisSet::build_mixed(
    const chem::Molecule& mol,
    const std::vector<std::string>& basis_per_atom) {
  MC_CHECK(basis_per_atom.size() == mol.natoms(),
           "build_mixed: need one basis name per atom");
  // Uniform assignment keeps the plain name; a genuine mix is labeled with
  // the sorted set of distinct names so reports stay deterministic.
  std::vector<std::string> distinct(basis_per_atom);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  std::string name;
  if (distinct.size() == 1) {
    name = distinct.front();
  } else if (distinct.size() > 1) {
    name = "mixed[";
    for (std::size_t n = 0; n < distinct.size(); ++n) {
      if (n > 0) name += ",";
      name += distinct[n];
    }
    name += "]";
  }
  std::vector<Shell> shells;
  for (std::size_t a = 0; a < mol.natoms(); ++a) {
    const chem::Atom& atom = mol.atom(a);
    for (const RawShell& raw : element_basis(basis_per_atom[a], atom.z)) {
      Shell sh;
      switch (raw.type) {
        case 'S': sh.l = 0; break;
        case 'P': sh.l = 1; break;
        case 'D': sh.l = 2; break;
        case 'L':
          MC_CHECK(raw.coefs_p.size() == raw.exps.size(),
                   "fused SP shell missing p coefficients");
          sh.l = 1;
          sh.sp = true;
          sh.coefs_p = raw.coefs_p;
          break;
        default:
          MC_CHECK(false, std::string("unknown raw shell type: ") + raw.type);
      }
      sh.center = atom.xyz;
      sh.exps = raw.exps;
      sh.coefs = raw.coefs;
      sh.atom = static_cast<int>(a);
      normalize_shell(sh);
      shells.push_back(std::move(sh));
    }
  }
  return BasisSet(std::move(shells), std::move(name));
}

int BasisSet::max_shell_size() const {
  int m = 0;
  for (const Shell& s : shells_) m = std::max(m, s.nfunc());
  return m;
}

int BasisSet::max_l() const {
  int m = 0;
  for (const Shell& s : shells_) m = std::max(m, s.l);
  return m;
}

std::size_t BasisSet::shell_of_bf(std::size_t bf) const {
  MC_CHECK(bf < nbf_, "basis function index out of range");
  // Shells are ordered by first_bf; binary search the containing one.
  std::size_t lo = 0, hi = shells_.size();
  while (hi - lo > 1) {
    const std::size_t mid = (lo + hi) / 2;
    if (shells_[mid].first_bf <= bf) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

BasisSet BasisSet::atom_block(std::size_t atom) const {
  std::vector<Shell> shells;
  for (const Shell& sh : shells_) {
    if (sh.atom != static_cast<int>(atom)) continue;
    shells.push_back(sh);
    shells.back().atom = 0;
  }
  return BasisSet(std::move(shells), name_);
}

}  // namespace mc::basis
