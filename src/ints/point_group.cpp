#include "ints/point_group.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace mc::ints {

namespace {

/// Distance (bohr) within which a shell centre's image must land on a
/// shell centre with identical shell data.
constexpr double kCenterTolerance = 1e-10;

/// Canonical pair index of shells a and b (either order).
std::size_t pair_index(std::size_t a, std::size_t b) {
  return a >= b ? a * (a + 1) / 2 + b : b * (b + 1) / 2 + a;
}

/// Same shell up to its centre: angular momentum, SP fusion, exponents
/// and contractions.
bool same_shell_data(const basis::Shell& a, const basis::Shell& b) {
  return a.l == b.l && a.sp == b.sp && a.exps == b.exps &&
         a.coefs == b.coefs && a.coefs_p == b.coefs_p;
}

/// The shell map of one flip mask, or empty if the mask is no symmetry of
/// the basis. `occurrence[s]` counts the shells before s with s's centre
/// and data, so two identical shells on one centre map in order.
std::vector<std::uint32_t> shell_map_of(
    const basis::BasisSet& bs, unsigned mask,
    const std::array<double, 3>& centroid,
    const std::vector<std::size_t>& by_x,
    const std::vector<std::size_t>& occurrence) {
  const std::size_t ns = bs.nshells();
  constexpr double tol = kCenterTolerance;
  std::vector<std::uint32_t> map(ns);
  std::vector<bool> hit(ns, false);
  for (std::size_t s = 0; s < ns; ++s) {
    const basis::Shell& sh = bs.shell(s);
    std::array<double, 3> p = sh.center;
    for (int a = 0; a < 3; ++a) {
      if ((mask >> a) & 1u) {
        const auto ax = static_cast<std::size_t>(a);
        p[ax] = 2.0 * centroid[ax] - p[ax];
      }
    }
    auto it = std::lower_bound(by_x.begin(), by_x.end(), p[0] - tol,
                               [&](std::size_t t, double x) {
                                 return bs.shell(t).center[0] < x;
                               });
    bool found = false;
    for (; it != by_x.end() && bs.shell(*it).center[0] <= p[0] + tol; ++it) {
      const std::size_t t = *it;
      const basis::Shell& img = bs.shell(t);
      const double dx = img.center[0] - p[0];
      const double dy = img.center[1] - p[1];
      const double dz = img.center[2] - p[2];
      if (dx * dx + dy * dy + dz * dz > tol * tol) continue;
      if (occurrence[t] != occurrence[s] || !same_shell_data(sh, img)) {
        continue;
      }
      if (hit[t]) return {};
      hit[t] = true;
      map[s] = static_cast<std::uint32_t>(t);
      found = true;
      break;
    }
    if (!found) return {};
  }
  return map;
}

}  // namespace

PointGroup PointGroup::detect(const basis::BasisSet& bs) {
  PointGroup pg;
  const std::size_t ns = bs.nshells();
  if (ns == 0) return pg;

  std::array<double, 3> centroid{};
  for (const basis::Shell& sh : bs.shells()) {
    for (std::size_t a = 0; a < 3; ++a) centroid[a] += sh.center[a];
  }
  for (double& c : centroid) c /= static_cast<double>(ns);

  std::vector<std::size_t> occurrence(ns, 0);
  for (std::size_t s = 0; s < ns; ++s) {
    for (std::size_t t = 0; t < s; ++t) {
      if (bs.shell(t).center == bs.shell(s).center &&
          same_shell_data(bs.shell(t), bs.shell(s))) {
        ++occurrence[s];
      }
    }
  }
  std::vector<std::size_t> by_x(ns);
  for (std::size_t s = 0; s < ns; ++s) by_x[s] = s;
  std::stable_sort(by_x.begin(), by_x.end(),
                   [&](std::size_t a, std::size_t b) {
                     return bs.shell(a).center[0] < bs.shell(b).center[0];
                   });

  // Every flip that maps the basis onto itself. Maps found within the
  // tolerance need not compose exactly, so keep the largest XOR-closed
  // subset (a subgroup of D2h), preferring the first found on ties.
  std::array<std::vector<std::uint32_t>, 8> maps;
  unsigned valid = 1u;  // bit m set: mask m is a symmetry (the identity is)
  for (unsigned m = 1; m < 8; ++m) {
    maps[m] = shell_map_of(bs, m, centroid, by_x, occurrence);
    if (!maps[m].empty()) valid |= 1u << m;
  }
  unsigned best = 1u;
  int best_size = 1;
  for (unsigned set = 1; set < 256; set += 2) {
    if ((set & ~valid) != 0u) continue;
    bool closed = true;
    int size = 0;
    for (unsigned a = 0; a < 8 && closed; ++a) {
      if (((set >> a) & 1u) == 0u) continue;
      ++size;
      for (unsigned b = 0; b < 8; ++b) {
        if (((set >> b) & 1u) != 0u && ((set >> (a ^ b)) & 1u) == 0u) {
          closed = false;
          break;
        }
      }
    }
    if (closed && size > best_size) {
      best = set;
      best_size = size;
    }
  }

  pg.ops_.clear();
  for (unsigned m = 0; m < 8; ++m) {
    if ((best >> m) & 1u) pg.ops_.push_back(m);
  }
  pg.nshells_ = ns;
  pg.nbf_ = bs.nbf();
  const std::size_t order = pg.ops_.size();
  pg.shell_map_.resize(order * ns);
  pg.function_map_.resize(order * pg.nbf_);
  pg.sign_.resize(order * pg.nbf_);
  for (std::size_t g = 0; g < order; ++g) {
    const unsigned m = pg.ops_[g];
    for (std::size_t s = 0; s < ns; ++s) {
      const std::size_t t = m == 0 ? s : maps[m][s];
      pg.shell_map_[g * ns + s] = static_cast<std::uint32_t>(t);
      const basis::Shell& from = bs.shell(s);
      const std::vector<basis::ShellComponent> comps =
          basis::shell_components(from);
      for (std::size_t a = 0; a < comps.size(); ++a) {
        const std::size_t f = from.first_bf + a;
        int parity = 0;
        for (std::size_t ax = 0; ax < 3; ++ax) {
          if ((m >> ax) & 1u) parity += comps[a].ijk[ax];
        }
        pg.function_map_[g * pg.nbf_ + f] =
            static_cast<std::uint32_t>(bs.shell(t).first_bf + a);
        pg.sign_[g * pg.nbf_ + f] = (parity % 2 == 0) ? 1.0 : -1.0;
      }
    }
  }
  return pg;
}

std::string PointGroup::describe() const {
  static constexpr std::array<const char*, 8> kNames = {
      "E", "sigma_yz", "sigma_xz", "C2z", "sigma_xy", "C2y", "C2x", "i"};
  std::string out;
  for (const unsigned m : ops_) {
    if (!out.empty()) out += ' ';
    out += kNames[m];
  }
  return out;
}

bool PointGroup::unique_pair(std::size_t i, std::size_t j) const {
  const std::size_t ij = pair_index(i, j);
  for (std::size_t g = 1; g < ops_.size(); ++g) {
    const std::uint32_t* map = shell_map_.data() + g * nshells_;
    if (pair_index(map[i], map[j]) > ij) return false;
  }
  return true;
}

unsigned PointGroup::representative_orbit(std::size_t i, std::size_t j,
                                          std::size_t k,
                                          std::size_t l) const {
  std::size_t bra = pair_index(i, j);
  std::size_t ket = pair_index(k, l);
  if (bra < ket) std::swap(bra, ket);
  unsigned stabilizer = 1;
  for (std::size_t g = 1; g < ops_.size(); ++g) {
    const std::uint32_t* map = shell_map_.data() + g * nshells_;
    std::size_t p = pair_index(map[i], map[j]);
    std::size_t q = pair_index(map[k], map[l]);
    if (p < q) std::swap(p, q);
    if (p > bra || (p == bra && q > ket)) return 0;
    if (p == bra && q == ket) ++stabilizer;
  }
  return static_cast<unsigned>(ops_.size()) / stabilizer;
}

double PointGroup::asymmetry(const la::Matrix& m) const {
  if (ops_.size() == 1) return 0.0;
  MC_CHECK(m.rows() == nbf_ && m.cols() == nbf_,
           "matrix shape does not match the point group's basis");
  double worst = 0.0;
  for (int g = 1; g < order(); ++g) {
    for (std::size_t mu = 0; mu < nbf_; ++mu) {
      const std::size_t gmu = function_image(g, mu);
      const double smu = function_sign(g, mu);
      for (std::size_t nu = 0; nu < nbf_; ++nu) {
        const double image =
            smu * function_sign(g, nu) * m(gmu, function_image(g, nu));
        worst = std::max(worst, std::abs(image - m(mu, nu)));
      }
    }
  }
  return worst;
}

void PointGroup::project(la::Matrix& m) const {
  if (ops_.size() == 1) return;
  MC_CHECK(m.rows() == nbf_ && m.cols() == nbf_,
           "matrix shape does not match the point group's basis");
  const int order = this->order();
  const double inv = 1.0 / static_cast<double>(order);
  for (std::size_t mu = 0; mu < nbf_; ++mu) {
    for (std::size_t nu = 0; nu < nbf_; ++nu) {
      const std::size_t flat = mu * nbf_ + nu;
      // The orbit is handled at its smallest flat index. An operation that
      // fixes the element but flips its sign makes the average vanish
      // (the terms cancel pairwise); write an exact zero then.
      bool smallest = true;
      bool vanishes = false;
      for (int g = 1; g < order && smallest; ++g) {
        const std::size_t image =
            function_image(g, mu) * nbf_ + function_image(g, nu);
        smallest = image >= flat;
        if (image == flat &&
            function_sign(g, mu) * function_sign(g, nu) < 0.0) {
          vanishes = true;
        }
      }
      if (!smallest) continue;
      double sum = 0.0;
      if (!vanishes) {
        for (int g = 0; g < order; ++g) {
          sum += function_sign(g, mu) * function_sign(g, nu) *
                 m(function_image(g, mu), function_image(g, nu));
        }
        sum *= inv;
      }
      for (int g = 0; g < order; ++g) {
        m(function_image(g, mu), function_image(g, nu)) =
            vanishes ? 0.0 : function_sign(g, mu) * function_sign(g, nu) * sum;
      }
    }
  }
}

}  // namespace mc::ints
