#include "chem/xyz_io.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>

#include "chem/element.hpp"
#include "common/constants.hpp"
#include "common/error.hpp"

namespace mc::chem {

Molecule read_xyz(std::istream& in) {
  std::string line;
  MC_CHECK(static_cast<bool>(std::getline(in, line)), "xyz: missing count line");
  std::size_t n = 0;
  {
    std::istringstream is(line);
    MC_CHECK(static_cast<bool>(is >> n), "xyz: bad atom count");
  }
  MC_CHECK(static_cast<bool>(std::getline(in, line)), "xyz: missing comment line");

  Molecule mol;
  for (std::size_t i = 0; i < n; ++i) {
    MC_CHECK(static_cast<bool>(std::getline(in, line)),
             "xyz: truncated atom records");
    std::istringstream is(line);
    std::string sym;
    double x, y, z;
    MC_CHECK(static_cast<bool>(is >> sym >> x >> y >> z),
             "xyz: malformed atom record: " + line);
    mol.add_atom(atomic_number(sym), x * kBohrPerAngstrom,
                 y * kBohrPerAngstrom, z * kBohrPerAngstrom);
  }
  return mol;
}

Molecule read_xyz_file(const std::string& path) {
  std::ifstream f(path);
  MC_CHECK(f.good(), "cannot open xyz file: " + path);
  return read_xyz(f);
}

void write_xyz(std::ostream& out, const Molecule& mol,
               const std::string& comment) {
  out << mol.natoms() << '\n' << comment << '\n';
  out << std::fixed << std::setprecision(8);
  for (const Atom& a : mol.atoms()) {
    out << element_symbol(a.z) << ' ' << a.xyz[0] * kAngstromPerBohr << ' '
        << a.xyz[1] * kAngstromPerBohr << ' ' << a.xyz[2] * kAngstromPerBohr
        << '\n';
  }
}

}  // namespace mc::chem
