#include "lagraph/lagraph.h"

#include "metrics/counters.h"
#include "support/cancel.h"
#include "trace/trace.h"

namespace gas::la {

using grb::Descriptor;
using grb::Index;
using grb::Vector;

namespace {

/*
 * Algorithm 2, written once against the grb::lazy recorders. In
 * blocking mode every recorder runs the eager op, so a round is the
 * paper's vxm + assign + nvals triple. When the caller selects
 * non-blocking mode the planner sees the spmv + assign chain and runs
 * the round as one fused kernel (dispatch_spmv_fused with the assign
 * as its per-entry hook), recycling the frontier's storage round over
 * round: the restructuring-compiler loop fusion of the paper's
 * Section VI, from unfused source.
 */
Vector<uint32_t>
bfs_rounds(grb::SpmvDispatcher<uint8_t>& spmv, Index source,
           grb::Direction force)
{
    trace::Span algo(trace::Category::kAlgo, "la_bfs");
    const Index n = spmv.matrix().nrows();

    // dist is dense: GrB_assign with GrB_ALL sets every entry to 0
    // ("unvisited"), then the source gets level 1.
    Vector<uint32_t> dist(n);
    grb::assign_scalar<uint32_t, uint8_t>(dist, nullptr, grb::kDefaultDesc,
                                          0u);
    dist.set_element(source, 1);

    Descriptor desc = grb::kComplementReplaceDesc;
    desc.direction = force;

    // Declared after everything its pending nodes reference (dist,
    // spmv): handle destruction is a flush point and must run first.
    grb::LazyVector<uint8_t> frontier(n);
    frontier.set_element(source, 1);

    uint32_t level = 1;
    while (!cancel_requested()) {
        trace::Span round(trace::Category::kRound, "round", level - 1);
        metrics::bump(metrics::kRounds);
        ++level;

        // frontier<!dist, replace> = frontier * A over LOR.LAND: the
        // out-neighbors of the frontier, filtered to unvisited vertices
        // (visited have a non-zero dist, so the complemented mask keeps
        // only zeros).
        grb::lazy::dispatch_spmv<grb::LorLand>(spmv, frontier, &dist,
                                               desc, frontier);

        // Assign the new level to the new frontier. Recorded before the
        // nvals() check so the planner can fuse it into the SpMV; on
        // the final round the frontier is empty and it assigns nothing.
        grb::lazy::assign_scalar(dist, frontier, grb::kDefaultDesc,
                                 level);

        // Are there new vertices to visit? (forces the round)
        if (frontier.nvals() == 0) {
            break;
        }
    }
    return dist;
}

} // namespace

Vector<uint32_t>
bfs(const grb::Matrix<uint8_t>& A, Index source)
{
    // Push-only dispatcher (no transpose registered): every round
    // resolves to vxm, so this stays the paper's pure-push baseline
    // while exercising the same dispatch_spmv entry point the
    // direction-optimizing variants use.
    grb::SpmvDispatcher<uint8_t> spmv(A);
    return bfs_rounds(spmv, source, grb::Direction::kAuto);
}

Vector<uint32_t>
bfs(const grb::Matrix<uint8_t>& A, const grb::Matrix<uint8_t>& At,
    Index source, grb::Direction force)
{
    grb::SpmvDispatcher<uint8_t> spmv(A, At);
    return bfs_rounds(spmv, source, force);
}

std::vector<uint32_t>
bfs_levels_from(const Vector<uint32_t>& dist)
{
    std::vector<uint32_t> levels(dist.size(), kUnreachedLevel);
    dist.for_entries([&](Index i, uint32_t value) {
        if (value != 0) {
            levels[i] = value - 1;
        }
    });
    return levels;
}

} // namespace gas::la
