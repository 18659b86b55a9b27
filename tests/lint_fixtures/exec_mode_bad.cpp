// gaslint fixture: POSITIVE for gas-exec-mode-in-algorithm.
#include "matrix/grb.h"

namespace fix {

using gas::grb::ExecMode;

void
bfs_round_fused(gas::grb::SpmvDispatcher<uint8_t>& spmv,
                gas::grb::LazyVector<uint8_t>& frontier,
                gas::grb::Vector<uint32_t>& dist, uint32_t level)
{
    // finding: the algorithm picks its own mode, so a second (eager)
    // copy of it has to exist for the unfused measurement.
    gas::grb::ExecModeScope mode(ExecMode::kNonBlocking);
    gas::grb::lazy::dispatch_spmv<gas::grb::LorLand>(
        spmv, frontier, &dist, gas::grb::kComplementReplaceDesc, frontier);
    gas::grb::lazy::assign_scalar(dist, frontier, gas::grb::kDefaultDesc,
                                  level);
}

void
relax(gas::grb::LazyVector<uint64_t>& w, const gas::grb::Vector<uint64_t>& u,
      const gas::grb::Vector<uint64_t>& v)
{
    const auto min = [](uint64_t a, uint64_t b) { return a < b ? a : b; };
    if (gas::grb::exec_mode() == ExecMode::kBlocking) { // finding
        gas::grb::ewise_add(w.storage(), u, v, min);
    } else {
        gas::grb::lazy::ewise_add(w, u, v, min);
    }
}

void
force_blocking()
{
    gas::grb::set_exec_mode(ExecMode::kBlocking); // finding
}

} // namespace fix
