#pragma once
// XYZ-format geometry I/O (coordinates in Angstrom in the file format,
// converted to/from Bohr at the boundary).

#include <iosfwd>
#include <string>

#include "chem/molecule.hpp"

namespace mc::chem {

/// Parse an XYZ stream: first line atom count, second line comment, then
/// "Sym x y z" records in Angstrom. Throws mc::Error on malformed input.
Molecule read_xyz(std::istream& in);
Molecule read_xyz_file(const std::string& path);

/// Write XYZ with the given comment line.
void write_xyz(std::ostream& out, const Molecule& mol,
               const std::string& comment = "");

}  // namespace mc::chem
