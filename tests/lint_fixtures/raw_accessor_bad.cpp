// gaslint fixture: POSITIVE for gas-raw-accessor-in-parallel.
#include <cstddef>
#include <cstdint>

#include "matrix/matrix.h"
#include "runtime/parallel.h"

namespace fix {

void
scale_values(gas::grb::Matrix<uint64_t>& m)
{
    gas::rt::do_all(m.nvals(), [&](std::size_t e) {
        m.raw_vals()[e] *= 2; // finding: every worker drops derived storage
    });
}

void
copy_rows(gas::grb::Matrix<uint64_t>& out,
          const gas::grb::Matrix<uint64_t>& in)
{
    gas::rt::do_all_blocked(in.nrows(), [&](gas::rt::Range range) {
        for (std::size_t r = range.begin; r < range.end; ++r) {
            for (auto e = in.row_begin(r); e < in.row_end(r); ++e) {
                out.raw_col()[e] = in.col_at(e); // finding
            }
        }
    });
}

void
count_per_thread(gas::grb::Matrix<uint64_t>& m)
{
    gas::rt::on_each([&](unsigned tid, unsigned) {
        m.raw_row_ptr()[tid] = 0; // finding
    });
}

} // namespace fix
