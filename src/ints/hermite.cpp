#include "ints/hermite.hpp"

#include <cmath>

namespace mc::ints {

void ETable::build(int imax, int jmax, double a, double b, double ab) {
  jmax_ = jmax;
  tdim_ = imax + jmax + 1;
  const double p = a + b;
  const double mu = a * b / p;
  const double one_over_2p = 0.5 / p;
  // Gaussian product center offsets.
  const double pa = -b * ab / p;  // P_x - A_x
  const double pb = a * ab / p;   // P_x - B_x

  data_.assign(static_cast<std::size_t>((imax + 1) * (jmax + 1) * tdim_), 0.0);
  auto at = [&](int i, int j, int t) -> double& {
    return data_[static_cast<std::size_t>((i * (jmax_ + 1) + j) * tdim_ + t)];
  };
  auto get = [&](int i, int j, int t) -> double {
    if (i < 0 || j < 0 || t < 0 || t > i + j) return 0.0;
    return at(i, j, t);
  };

  at(0, 0, 0) = std::exp(-mu * ab * ab);

  // Build up i at j = 0:
  //   E_t^{i+1,0} = (1/2p) E_{t-1}^{i,0} + PA E_t^{i,0} + (t+1) E_{t+1}^{i,0}
  for (int i = 0; i < imax; ++i) {
    for (int t = 0; t <= i + 1; ++t) {
      at(i + 1, 0, t) = one_over_2p * get(i, 0, t - 1) + pa * get(i, 0, t) +
                        (t + 1) * get(i, 0, t + 1);
    }
  }
  // Build up j for every i:
  //   E_t^{i,j+1} = (1/2p) E_{t-1}^{i,j} + PB E_t^{i,j} + (t+1) E_{t+1}^{i,j}
  for (int i = 0; i <= imax; ++i) {
    for (int j = 0; j < jmax; ++j) {
      for (int t = 0; t <= i + j + 1; ++t) {
        at(i, j + 1, t) = one_over_2p * get(i, j, t - 1) + pb * get(i, j, t) +
                          (t + 1) * get(i, j, t + 1);
      }
    }
  }
}

}  // namespace mc::ints
