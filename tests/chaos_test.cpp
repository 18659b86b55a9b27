/**
 * @file
 * Chaos harness: every workload runs under seeded fault injection
 * (allocation failures at every instrumented site plus worker delays)
 * and must either produce a correct result or unwind into a clean
 * non-OK Status — never crash, leak, or wedge.
 *
 * Each seed replays deterministically (see support/faults.h), so a
 * failure here is reproduced by installing the printed seed.
 */

#include <gtest/gtest.h>

#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "lagraph/lagraph.h"
#include "lonestar/lonestar.h"
#include "runtime/thread_pool.h"
#include "support/cancel.h"
#include "support/faults.h"
#include "verify/reference.h"

namespace gas {
namespace {

using graph::EdgeList;
using graph::Graph;
using graph::Node;

constexpr uint64_t kSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34};
constexpr double kAllocP = 0.01;
constexpr uint64_t kDelayUs = 5;

struct ChaosGraphs
{
    Graph directed;
    Graph symmetric;
    Graph transpose;
    ls::ForwardGraph forward;

    static const ChaosGraphs&
    instance()
    {
        static const ChaosGraphs graphs = [] {
            EdgeList list = graph::rmat(9, 8, 17);
            graph::remove_self_loops(list);
            graph::randomize_weights(list, 99, 1, 64);
            ChaosGraphs g;
            g.directed = Graph::from_edge_list(list, true);
            g.directed.sort_adjacencies();
            EdgeList sym = list;
            graph::symmetrize(sym);
            g.symmetric = Graph::from_edge_list(sym, true);
            g.symmetric.sort_adjacencies();
            g.transpose = graph::transpose(g.directed);
            g.forward = ls::build_forward_graph(g.symmetric);
            return g;
        }();
        return graphs;
    }
};

/// Run one workload under a fault campaign. The run must either finish
/// with an OK status and a correct result (checked by the caller's
/// verifier) or unwind into a clean non-OK Status.
template <typename Fn, typename Verify>
void
chaos_run(const char* label, uint64_t seed, Fn&& fn, Verify&& verify)
{
    rt::set_num_threads(4);
    faults::install({kAllocP, kDelayUs, seed});
    const Status status = run_guarded(fn);
    faults::uninstall();
    if (status.ok()) {
        verify();
    } else {
        // Clean failure: the only acceptable codes are the recoverable
        // ones the robustness layer maps.
        EXPECT_TRUE(status.code() == StatusCode::kResourceExhausted ||
                    status.code() == StatusCode::kCancelled ||
                    status.code() == StatusCode::kDeadlineExceeded)
            << label << " seed " << seed << ": " << status.to_string();
    }
}

TEST(Chaos, LonestarBfsSurvivesAllSeeds)
{
    const auto& g = ChaosGraphs::instance();
    const auto oracle = verify::bfs_levels(g.directed, 0);
    for (const uint64_t seed : kSeeds) {
        std::vector<uint32_t> levels;
        chaos_run(
            "ls_bfs", seed, [&] { levels = ls::bfs(g.directed, 0); },
            [&] { EXPECT_EQ(levels, oracle) << seed; });
    }
}

TEST(Chaos, LonestarCcSurvivesAllSeeds)
{
    const auto& g = ChaosGraphs::instance();
    const auto oracle = verify::connected_components(g.symmetric);
    for (const uint64_t seed : kSeeds) {
        std::vector<Node> labels;
        chaos_run(
            "ls_cc", seed,
            [&] { labels = ls::cc_afforest(g.symmetric); },
            [&] { EXPECT_EQ(labels, oracle) << seed; });
    }
}

TEST(Chaos, LonestarSsspSurvivesAllSeeds)
{
    const auto& g = ChaosGraphs::instance();
    const auto oracle = verify::dijkstra(g.directed, 0);
    for (const uint64_t seed : kSeeds) {
        std::vector<uint64_t> dist;
        chaos_run(
            "ls_sssp", seed, [&] { dist = ls::sssp(g.directed, 0); },
            [&] { EXPECT_EQ(dist, oracle) << seed; });
    }
}

TEST(Chaos, LonestarPrSurvivesAllSeeds)
{
    const auto& g = ChaosGraphs::instance();
    const auto oracle = verify::pagerank(g.directed, 0.85, 10);
    for (const uint64_t seed : kSeeds) {
        std::vector<double> ranks;
        chaos_run(
            "ls_pr", seed,
            [&] {
                ranks = ls::pagerank(g.directed, g.transpose, 0.85, 10);
            },
            [&] {
                ASSERT_EQ(ranks.size(), oracle.size()) << seed;
                for (std::size_t i = 0; i < ranks.size(); ++i) {
                    EXPECT_NEAR(ranks[i], oracle[i], 1e-8) << seed;
                }
            });
    }
}

TEST(Chaos, LonestarTcSurvivesAllSeeds)
{
    const auto& g = ChaosGraphs::instance();
    const uint64_t oracle = verify::count_triangles(g.symmetric);
    for (const uint64_t seed : kSeeds) {
        uint64_t triangles = 0;
        chaos_run(
            "ls_tc", seed, [&] { triangles = ls::tc(g.forward); },
            [&] { EXPECT_EQ(triangles, oracle) << seed; });
    }
}

TEST(Chaos, LonestarKtrussSurvivesAllSeeds)
{
    const auto& g = ChaosGraphs::instance();
    const uint64_t oracle = verify::ktruss_edge_count(g.symmetric, 4);
    for (const uint64_t seed : kSeeds) {
        uint64_t edges = 0;
        chaos_run(
            "ls_ktruss", seed,
            [&] { edges = ls::ktruss(g.symmetric, 4); },
            [&] { EXPECT_EQ(edges, oracle) << seed; });
    }
}

/// The matrix-API runs cover both execution modes: the LAGraph bodies
/// written against the lazy recorders run eagerly in blocking mode and
/// through the fusion planner's kernels in non-blocking mode.
constexpr grb::ExecMode kModes[] = {grb::ExecMode::kBlocking,
                                    grb::ExecMode::kNonBlocking};

const char*
mode_label(grb::ExecMode mode, const char* blocking,
           const char* nonblocking)
{
    return mode == grb::ExecMode::kBlocking ? blocking : nonblocking;
}

TEST(Chaos, GrbBfsSurvivesAllSeeds)
{
    const auto& g = ChaosGraphs::instance();
    const auto oracle = verify::bfs_levels(g.directed, 0);
    const auto A = grb::Matrix<uint8_t>::from_graph(g.directed, false);
    for (const grb::ExecMode mode : kModes) {
        for (const uint64_t seed : kSeeds) {
            std::vector<uint32_t> levels;
            chaos_run(
                mode_label(mode, "la_bfs", "la_bfs_nonblocking"), seed,
                [&] {
                    grb::ExecModeScope scope(mode);
                    levels = la::bfs_levels_from(la::bfs(A, 0));
                },
                [&] { EXPECT_EQ(levels, oracle) << seed; });
        }
    }
}

TEST(Chaos, GrbPrSurvivesAllSeeds)
{
    const auto& g = ChaosGraphs::instance();
    const auto oracle = verify::pagerank(g.directed, 0.85, 10);
    const auto A = grb::Matrix<double>::from_graph(g.directed, false);
    const auto At = A.transpose();
    const auto check = [&](const std::vector<double>& ranks,
                           uint64_t seed) {
        ASSERT_EQ(ranks.size(), oracle.size()) << seed;
        for (std::size_t i = 0; i < ranks.size(); ++i) {
            EXPECT_NEAR(ranks[i], oracle[i], 1e-8) << seed;
        }
    };
    for (const uint64_t seed : kSeeds) {
        std::vector<double> ranks;
        chaos_run(
            "la_pr", seed,
            [&] { ranks = la::pagerank(A, At, 0.85, 10); },
            [&] { check(ranks, seed); });
    }
    for (const grb::ExecMode mode : kModes) {
        for (const uint64_t seed : kSeeds) {
            std::vector<double> ranks;
            chaos_run(
                mode_label(mode, "la_pr_residual",
                           "la_pr_residual_nonblocking"),
                seed,
                [&] {
                    grb::ExecModeScope scope(mode);
                    ranks = la::pagerank_residual(A, At, 0.85, 10);
                },
                [&] { check(ranks, seed); });
        }
    }
}

TEST(Chaos, GrbSsspSurvivesAllSeeds)
{
    const auto& g = ChaosGraphs::instance();
    const auto oracle = verify::dijkstra(g.directed, 0);
    const auto A = grb::Matrix<uint64_t>::from_graph(g.directed, true);
    for (const grb::ExecMode mode : kModes) {
        for (const uint64_t seed : kSeeds) {
            std::vector<uint64_t> dist;
            chaos_run(
                mode_label(mode, "la_sssp", "la_sssp_nonblocking"), seed,
                [&] {
                    grb::ExecModeScope scope(mode);
                    dist = la::sssp_delta(A, 0, 64);
                },
                [&] { EXPECT_EQ(dist, oracle) << seed; });
        }
    }
}

} // namespace
} // namespace gas
