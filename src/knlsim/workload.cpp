#include "knlsim/workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <unordered_map>

#include "common/error.hpp"
#include "ints/eri.hpp"
#include "ints/shell_pair.hpp"

namespace mc::knlsim {

namespace {

// Shell "type": shells are radially identical iff (l, sp, exponent list)
// match -- an SP shell and a p shell with the same exponents differ, since
// the SP shell also carries an s function. Graphene has exactly one atom
// type, so the number of types is tiny.
struct TypeKey {
  int l;
  bool sp;
  std::vector<double> exps;
  bool operator<(const TypeKey& o) const {
    if (l != o.l) return l < o.l;
    if (sp != o.sp) return sp < o.sp;
    return exps < o.exps;
  }
};

// Q(type1, type2, r): Schwarz bound of a shell pair at distance r, via the
// production ERI kernel on representative shells.
double exact_pair_q(const basis::Shell& a, const basis::Shell& b) {
  ints::ShellPairData sp = ints::make_shell_pair(a, b);
  const int nc = sp.ncomp();
  std::vector<double> batch(static_cast<std::size_t>(nc) * nc, 0.0);
  ints::compute_eri_canonical(sp, sp, batch.data());
  double m = 0.0;
  for (int c = 0; c < nc; ++c) {
    m = std::max(m, std::abs(batch[static_cast<std::size_t>(c) * nc + c]));
  }
  return std::sqrt(m);
}

struct CellKey {
  int x, y, z;
  bool operator==(const CellKey& o) const {
    return x == o.x && y == o.y && z == o.z;
  }
};
struct CellHash {
  std::size_t operator()(const CellKey& c) const {
    return static_cast<std::size_t>(c.x * 73856093) ^
           static_cast<std::size_t>(c.y * 19349663) ^
           static_cast<std::size_t>(c.z * 83492791);
  }
};

}  // namespace

Workload::Workload(const chem::Molecule& mol, const std::string& basis,
                   const EriCostTable& costs, WorkloadOptions opt)
    : opt_(opt) {
  auto bs = basis::BasisSet::build(mol, basis);
  nshells_ = bs.nshells();
  nbf_ = bs.nbf();
  npairs_total_ = nshells_ * (nshells_ + 1) / 2;

  // --- Assign shell types and pick representatives. ---
  std::map<TypeKey, int> type_ids;
  std::vector<int> shell_type(nshells_);
  std::vector<std::size_t> type_rep;
  for (std::size_t s = 0; s < nshells_; ++s) {
    const basis::Shell& sh = bs.shell(s);
    TypeKey key{sh.l, sh.sp, sh.exps};
    auto [it, inserted] = type_ids.emplace(key, static_cast<int>(type_rep.size()));
    if (inserted) type_rep.push_back(s);
    shell_type[s] = it->second;
  }
  const int ntypes = static_cast<int>(type_rep.size());

  // --- Radial Q tables per type pair. ---
  const int nsteps =
      static_cast<int>(opt_.pair_cutoff_bohr / opt_.radial_step_bohr) + 2;
  std::vector<std::vector<double>> qtable(
      static_cast<std::size_t>(ntypes * ntypes));
  double table_qmax = 0.0;
  for (int t1 = 0; t1 < ntypes; ++t1) {
    for (int t2 = 0; t2 <= t1; ++t2) {
      std::vector<double> table(static_cast<std::size_t>(nsteps));
      basis::Shell a = bs.shell(type_rep[static_cast<std::size_t>(t1)]);
      basis::Shell b = bs.shell(type_rep[static_cast<std::size_t>(t2)]);
      a.center = {0.0, 0.0, 0.0};
      for (int s = 0; s < nsteps; ++s) {
        b.center = {0.0, 0.0, s * opt_.radial_step_bohr};
        table[static_cast<std::size_t>(s)] = exact_pair_q(a, b);
        table_qmax = std::max(table_qmax, table[static_cast<std::size_t>(s)]);
      }
      qtable[static_cast<std::size_t>(t1 * ntypes + t2)] = table;
      qtable[static_cast<std::size_t>(t2 * ntypes + t1)] = std::move(table);
    }
  }
  auto lookup_q = [&](int t1, int t2, double r) {
    const auto& table = qtable[static_cast<std::size_t>(t1 * ntypes + t2)];
    const double x = r / opt_.radial_step_bohr;
    const int k = static_cast<int>(x);
    if (k + 1 >= static_cast<int>(table.size())) return 0.0;
    const double f = x - k;
    const double lo = table[static_cast<std::size_t>(k)];
    const double hi = table[static_cast<std::size_t>(k + 1)];
    // Q decays ~exp(-mu R^2): interpolate in log space where both samples
    // are positive (linear interpolation overshoots by ~2% at these radii).
    if (lo > 0.0 && hi > 0.0) {
      return std::exp((1.0 - f) * std::log(lo) + f * std::log(hi));
    }
    return (1.0 - f) * lo + f * hi;
  };

  // --- Spatial binning of shell centers for the cutoff sweep. ---
  const double cell = opt_.pair_cutoff_bohr;
  std::unordered_map<CellKey, std::vector<std::uint32_t>, CellHash> grid;
  auto cell_of = [&](const std::array<double, 3>& p) {
    return CellKey{static_cast<int>(std::floor(p[0] / cell)),
                   static_cast<int>(std::floor(p[1] / cell)),
                   static_cast<int>(std::floor(p[2] / cell))};
  };
  for (std::size_t s = 0; s < nshells_; ++s) {
    grid[cell_of(bs.shell(s).center)].push_back(static_cast<std::uint32_t>(s));
  }

  // --- Sweep canonical pairs (i >= j) in pair-index order. ---
  const double cutoff2 = opt_.pair_cutoff_bohr * opt_.pair_cutoff_bohr;
  std::vector<std::uint32_t> candidates;
  for (std::size_t i = 0; i < nshells_; ++i) {
    const basis::Shell& shi = bs.shell(i);
    const CellKey ci = cell_of(shi.center);
    candidates.clear();
    for (int dx = -1; dx <= 1; ++dx) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dz = -1; dz <= 1; ++dz) {
          auto it = grid.find(CellKey{ci.x + dx, ci.y + dy, ci.z + dz});
          if (it == grid.end()) continue;
          for (std::uint32_t j : it->second) {
            if (j <= i) candidates.push_back(j);
          }
        }
      }
    }
    std::sort(candidates.begin(), candidates.end());
    for (std::uint32_t j : candidates) {
      const basis::Shell& shj = bs.shell(j);
      double r2 = 0.0;
      for (int d = 0; d < 3; ++d) {
        const double dd = shi.center[d] - shj.center[d];
        r2 += dd * dd;
      }
      if (r2 > cutoff2) continue;
      const double q =
          lookup_q(shell_type[i], shell_type[static_cast<std::size_t>(j)],
                   std::sqrt(r2));
      if (q * table_qmax < opt_.tau) continue;  // cannot survive screening
      PairTask t;
      t.i = static_cast<std::uint32_t>(i);
      t.idx = static_cast<std::uint32_t>(i * (i + 1) / 2 + j);
      t.q = static_cast<float>(q);
      t.cls = static_cast<std::uint8_t>(
          std::min(kNumPairClasses - 1, shi.l + shj.l));
      t.nprim = static_cast<std::uint16_t>(shi.nprim() * shj.nprim());
      pairs_.push_back(t);
      qmax_ = std::max(qmax_, q);
    }
  }

  // --- Per-class sorted bounds with suffix sums for partner queries. ---
  struct ClassData {
    std::vector<float> q_sorted;          // ascending
    std::vector<double> nprim_suffix;     // sum of nprim for q >= q_sorted[k]
    std::vector<double> count_suffix;     // pair count for q >= q_sorted[k]
  };
  std::vector<ClassData> cls_data(kNumPairClasses);
  for (const PairTask& t : pairs_) {
    cls_data[t.cls].q_sorted.push_back(t.q);
  }
  std::vector<std::vector<double>> cls_nprim(kNumPairClasses);
  {
    // Sort (q, nprim) jointly per class.
    std::vector<std::vector<std::pair<float, double>>> tmp(kNumPairClasses);
    for (const PairTask& t : pairs_) {
      tmp[t.cls].push_back({t.q, static_cast<double>(t.nprim)});
    }
    for (int c = 0; c < kNumPairClasses; ++c) {
      auto& v = tmp[static_cast<std::size_t>(c)];
      std::sort(v.begin(), v.end());
      auto& cd = cls_data[static_cast<std::size_t>(c)];
      cd.q_sorted.resize(v.size());
      cd.nprim_suffix.assign(v.size() + 1, 0.0);
      cd.count_suffix.assign(v.size() + 1, 0.0);
      for (std::size_t k = 0; k < v.size(); ++k) {
        cd.q_sorted[k] = v[k].first;
      }
      for (std::size_t k = v.size(); k-- > 0;) {
        cd.nprim_suffix[k] = cd.nprim_suffix[k + 1] + v[k].second;
        cd.count_suffix[k] = cd.count_suffix[k + 1] + 1.0;
      }
    }
  }

  // --- Task costs. ---
  task_cost_.resize(pairs_.size());
  i_task_cost_.assign(nshells_, 0.0);
  i_task_kl_.assign(nshells_, 0.0);
  const std::size_t nsurv = pairs_.size();
  double total = 0.0;
  double quartets = 0.0;
  for (std::size_t p = 0; p < nsurv; ++p) {
    const PairTask& t = pairs_[p];
    const double qmin = opt_.tau / std::max(1e-300, static_cast<double>(t.q));
    double full_cost = 0.0;
    double full_count = 0.0;
    for (int c = 0; c < kNumPairClasses; ++c) {
      const auto& cd = cls_data[static_cast<std::size_t>(c)];
      if (cd.q_sorted.empty()) continue;
      const auto it = std::lower_bound(cd.q_sorted.begin(), cd.q_sorted.end(),
                                       static_cast<float>(qmin));
      const std::size_t k =
          static_cast<std::size_t>(it - cd.q_sorted.begin());
      const double partner_nprim = cd.nprim_suffix[k];
      full_cost += costs.s_per_unit[t.cls][static_cast<std::size_t>(c)] *
                   static_cast<double>(t.nprim) * partner_nprim;
      full_count += cd.count_suffix[k];
    }
    // Triangular kl <= ij constraint: the surviving kl partners with a
    // smaller pair index are, for a homogeneous system, approximately the
    // fraction (rank of ij among surviving pairs).
    const double tri =
        (static_cast<double>(p) + 0.5) / static_cast<double>(nsurv);
    task_cost_[p] = full_cost * tri;
    total += task_cost_[p];
    quartets += full_count * tri;
    i_task_cost_[t.i] += task_cost_[p];
    i_task_kl_[t.i] += static_cast<double>(t.idx) + 1.0;
  }
  total_seconds_ = total;
  quartets_ = quartets;
}

}  // namespace mc::knlsim
