// gaslint fixture: NEGATIVE for gas-exec-mode-in-algorithm.
#include "matrix/grb.h"

namespace fix {

// One body for both modes: the recorders run the eager ops in blocking
// mode and fuse in non-blocking mode. The caller (a bench or a test)
// picks the mode around the call; the algorithm never reads it.
void
bfs_round(gas::grb::SpmvDispatcher<uint8_t>& spmv,
          gas::grb::LazyVector<uint8_t>& frontier,
          gas::grb::Vector<uint32_t>& dist, uint32_t level)
{
    gas::grb::lazy::dispatch_spmv<gas::grb::LorLand>(
        spmv, frontier, &dist, gas::grb::kComplementReplaceDesc, frontier);
    gas::grb::lazy::assign_scalar(dist, frontier, gas::grb::kDefaultDesc,
                                  level);
}

// A member or local merely named like the accessor is not a call.
struct Config
{
    int exec_mode{0};
};

int
mode_of(const Config& config)
{
    return config.exec_mode;
}

} // namespace fix
