// gaslint fixture: NEGATIVE for gas-raw-accessor-in-parallel.
#include <cstddef>
#include <cstdint>

#include "matrix/matrix.h"
#include "runtime/parallel.h"

namespace fix {

void
scale_values(gas::grb::Matrix<uint64_t>& m)
{
    // Taken once, before the loop: the workers share a plain reference.
    auto& vals = m.raw_vals();
    gas::rt::do_all(vals.size(), [&](std::size_t e) {
        vals[e] *= 2;
    });
}

void
copy_rows(gas::grb::Matrix<uint64_t>& out,
          const gas::grb::Matrix<uint64_t>& in)
{
    auto& col = out.raw_col();
    gas::rt::do_all_blocked(in.nrows(), [&](gas::rt::Range range) {
        for (std::size_t r = range.begin; r < range.end; ++r) {
            // Const row views never touch the matrix's derived storage.
            const auto cols = in.row_indices(r);
            for (std::size_t k = 0; k < cols.size(); ++k) {
                col[in.row_begin(r) + k] = cols[k];
            }
        }
    });
}

} // namespace fix
