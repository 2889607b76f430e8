#include "basis/basis_set.hpp"

#include <algorithm>

#include "basis/basis_library.hpp"
#include "common/error.hpp"

namespace mc::basis {

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
  BasisSet bs;
  // Uniform assignment keeps the plain name; a genuine mix is labeled with
  // the sorted set of distinct names so reports stay deterministic.
  std::vector<std::string> distinct(basis_per_atom);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  if (distinct.empty()) {
    bs.name_ = "";
  } else if (distinct.size() == 1) {
    bs.name_ = distinct.front();
  } else {
    bs.name_ = "mixed[";
    for (std::size_t n = 0; n < distinct.size(); ++n) {
      if (n > 0) bs.name_ += ",";
      bs.name_ += distinct[n];
    }
    bs.name_ += "]";
  }
  std::size_t bf = 0;
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
      sh.first_bf = bf;
      bf += static_cast<std::size_t>(sh.nfunc());
      bs.shells_.push_back(std::move(sh));
    }
  }
  bs.nbf_ = bf;
  return bs;
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
  BasisSet block;
  block.name_ = name_;
  for (const Shell& sh : shells_) {
    if (sh.atom != static_cast<int>(atom)) continue;
    Shell copy = sh;
    copy.atom = 0;
    copy.first_bf = block.nbf_;
    block.nbf_ += static_cast<std::size_t>(copy.nfunc());
    block.shells_.push_back(std::move(copy));
  }
  return block;
}

}  // namespace mc::basis
