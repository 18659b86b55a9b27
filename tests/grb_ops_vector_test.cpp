/**
 * @file
 * Tests for vector-level grb operations (assign, apply, eWise, reduce,
 * gather/scatter, select, equality) on both backends.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "matrix/grb.h"
#include "metrics/counters.h"
#include "runtime/thread_pool.h"
#include "support/random.h"

namespace gas::grb {
namespace {

class GrbOpsVectorTest : public ::testing::TestWithParam<Backend>
{
  protected:
    void SetUp() override
    {
        rt::set_num_threads(4);
        set_backend(GetParam());
    }

    void TearDown() override { set_backend(Backend::kParallel); }
};

/// Model of a vector as a map for oracle comparisons.
using Model = std::map<Index, int64_t>;

Model
to_model(const Vector<int64_t>& v)
{
    Model model;
    v.for_entries([&](Index i, int64_t x) { model[i] = x; });
    return model;
}

Vector<int64_t>
random_vector(Index size, double density, uint64_t seed, bool dense_format)
{
    Vector<int64_t> v(size);
    Rng rng(seed);
    for (Index i = 0; i < size; ++i) {
        if (rng.next_double() < density) {
            v.set_element(i, static_cast<int64_t>(rng.next_bounded(100)));
        }
    }
    if (dense_format) {
        v.densify();
    }
    return v;
}

TEST_P(GrbOpsVectorTest, AssignScalarNoMask)
{
    Vector<int64_t> w(50);
    assign_scalar<int64_t, uint8_t>(w, nullptr, kDefaultDesc, int64_t{7});
    EXPECT_EQ(w.nvals(), 50u);
    EXPECT_EQ(w.get_element(13), 7);
}

TEST_P(GrbOpsVectorTest, AssignScalarSparseMask)
{
    Vector<int64_t> w(10);
    w.fill(0);
    Vector<int64_t> mask(10);
    mask.set_element(2, 1);
    mask.set_element(5, 1);
    mask.set_element(7, 0); // explicit zero: mask-false
    Vector<int64_t> mask_cast = mask;
    assign_scalar(w, &mask_cast, kDefaultDesc, int64_t{9});
    EXPECT_EQ(w.get_element(2), 9);
    EXPECT_EQ(w.get_element(5), 9);
    EXPECT_EQ(w.get_element(7), 0);
    EXPECT_EQ(w.get_element(0), 0);
}

TEST_P(GrbOpsVectorTest, AssignScalarComplementMask)
{
    Vector<int64_t> w(6);
    w.fill(1);
    Vector<int64_t> mask(6);
    mask.set_element(0, 1);
    mask.set_element(3, 1);
    assign_scalar(w, &mask, Descriptor{true, false}, int64_t{5});
    EXPECT_EQ(w.get_element(0), 1);
    EXPECT_EQ(w.get_element(3), 1);
    EXPECT_EQ(w.get_element(1), 5);
    EXPECT_EQ(w.get_element(5), 5);
}

TEST_P(GrbOpsVectorTest, AssignGrowsSparseVector)
{
    Vector<int64_t> w(10); // empty sparse
    Vector<int64_t> mask(10);
    mask.set_element(4, 1);
    assign_scalar(w, &mask, kDefaultDesc, int64_t{3});
    EXPECT_EQ(w.nvals(), 1u);
    EXPECT_EQ(w.get_element(4), 3);
}

TEST_P(GrbOpsVectorTest, ApplyPreservesStructure)
{
    for (const bool dense : {false, true}) {
        auto u = random_vector(64, 0.3, 11, dense);
        Vector<int64_t> w;
        apply(w, u, [](int64_t x) { return x * 2 + 1; });
        EXPECT_EQ(w.nvals(), u.nvals());
        const auto expected = to_model(u);
        for (const auto& [i, x] : to_model(w)) {
            EXPECT_EQ(x, expected.at(i) * 2 + 1);
        }
    }
}

TEST_P(GrbOpsVectorTest, EwiseAddUnionSemantics)
{
    for (const bool u_dense : {false, true}) {
        for (const bool v_dense : {false, true}) {
            auto u = random_vector(80, 0.25, 21, u_dense);
            auto v = random_vector(80, 0.25, 22, v_dense);
            Vector<int64_t> w;
            ewise_add(w, u, v,
                      [](int64_t a, int64_t b) { return a + b; });
            Model expected = to_model(u);
            for (const auto& [i, x] : to_model(v)) {
                auto [it, inserted] = expected.try_emplace(i, x);
                if (!inserted) {
                    it->second += x;
                }
            }
            EXPECT_EQ(to_model(w), expected)
                << "u_dense=" << u_dense << " v_dense=" << v_dense;
        }
    }
}

TEST_P(GrbOpsVectorTest, EwiseAddNonCommutativeOrder)
{
    auto u = random_vector(40, 0.5, 31, true);
    auto v = random_vector(40, 0.5, 32, false);
    Vector<int64_t> w;
    ewise_add(w, u, v, [](int64_t a, int64_t b) { return a - b; });
    const Model mu = to_model(u);
    const Model mv = to_model(v);
    for (const auto& [i, x] : to_model(w)) {
        const bool in_u = mu.contains(i);
        const bool in_v = mv.contains(i);
        if (in_u && in_v) {
            EXPECT_EQ(x, mu.at(i) - mv.at(i));
        } else if (in_u) {
            EXPECT_EQ(x, mu.at(i));
        } else {
            EXPECT_EQ(x, mv.at(i));
        }
    }
}

TEST_P(GrbOpsVectorTest, EwiseMultIntersectionSemantics)
{
    for (const bool u_dense : {false, true}) {
        for (const bool v_dense : {false, true}) {
            auto u = random_vector(80, 0.4, 41, u_dense);
            auto v = random_vector(80, 0.4, 42, v_dense);
            Vector<int64_t> w;
            ewise_mult(w, u, v,
                       [](int64_t a, int64_t b) { return a * 10 + b; });
            const Model mu = to_model(u);
            const Model mv = to_model(v);
            Model expected;
            for (const auto& [i, x] : mu) {
                if (mv.contains(i)) {
                    expected[i] = x * 10 + mv.at(i);
                }
            }
            EXPECT_EQ(to_model(w), expected)
                << "u_dense=" << u_dense << " v_dense=" << v_dense;
        }
    }
}

TEST_P(GrbOpsVectorTest, ReducePlus)
{
    auto u = random_vector(1000, 0.5, 51, false);
    int64_t expected = 0;
    for (const auto& [i, x] : to_model(u)) {
        expected += x;
    }
    EXPECT_EQ((reduce<PlusMonoid<int64_t>>(u)), expected);
    u.densify();
    EXPECT_EQ((reduce<PlusMonoid<int64_t>>(u)), expected);
}

TEST_P(GrbOpsVectorTest, ReduceMinAndMax)
{
    Vector<int64_t> u(10);
    u.set_element(1, 5);
    u.set_element(4, -3);
    u.set_element(9, 12);
    EXPECT_EQ((reduce<MinMonoid<int64_t>>(u)), -3);
    EXPECT_EQ((reduce<MaxMonoid<int64_t>>(u)), 12);
}

TEST_P(GrbOpsVectorTest, ReduceEmptyIsIdentity)
{
    Vector<int64_t> u(10);
    EXPECT_EQ((reduce<PlusMonoid<int64_t>>(u)), 0);
    EXPECT_EQ((reduce<MinMonoid<int64_t>>(u)),
              std::numeric_limits<int64_t>::max());
}

TEST_P(GrbOpsVectorTest, GatherPointerJump)
{
    // parent = [1, 2, 3, 3]; gather(parent, parent) = [2, 3, 3, 3].
    Vector<int64_t> parent(4);
    parent.fill(0);
    parent.set_element(0, 1);
    parent.set_element(1, 2);
    parent.set_element(2, 3);
    parent.set_element(3, 3);
    Vector<int64_t> grandparent;
    gather(grandparent, parent, parent);
    EXPECT_EQ(grandparent.get_element(0), 2);
    EXPECT_EQ(grandparent.get_element(1), 3);
    EXPECT_EQ(grandparent.get_element(2), 3);
    EXPECT_EQ(grandparent.get_element(3), 3);
}

TEST_P(GrbOpsVectorTest, ScatterMinTakesMinimum)
{
    Vector<int64_t> w(4);
    w.fill(100);
    Vector<int64_t> idx(3);
    idx.fill(0);
    idx.set_element(0, 2);
    idx.set_element(1, 2);
    idx.set_element(2, 0);
    Vector<int64_t> u(3);
    u.fill(0);
    u.set_element(0, 7);
    u.set_element(1, 3);
    u.set_element(2, 50);
    scatter_min(w, idx, u);
    EXPECT_EQ(w.get_element(2), 3);
    EXPECT_EQ(w.get_element(0), 50);
    EXPECT_EQ(w.get_element(1), 100);
}

TEST_P(GrbOpsVectorTest, SelectEntries)
{
    auto u = random_vector(200, 0.5, 61, GetParam() == Backend::kParallel);
    Vector<int64_t> w;
    select_entries(w, u,
                   [](Index, int64_t x) { return x % 2 == 0; });
    Model expected;
    for (const auto& [i, x] : to_model(u)) {
        if (x % 2 == 0) {
            expected[i] = x;
        }
    }
    EXPECT_EQ(to_model(w), expected);
    if (GetParam() == Backend::kReference) {
        EXPECT_TRUE(w.sorted());
    }
}

/// The counters an aliased call must bump exactly like a fresh one.
constexpr metrics::CounterId kOpCounters[] = {
    metrics::kPasses, metrics::kWorkItems, metrics::kLabelReads,
    metrics::kLabelWrites, metrics::kBytesMaterialized};

/// Bit-identical: same format, dimension, entries and op counters.
void
expect_identical(const Vector<int64_t>& got, const metrics::Snapshot& got_c,
                 const Vector<int64_t>& want,
                 const metrics::Snapshot& want_c, const std::string& what)
{
    EXPECT_EQ(got.format(), want.format()) << what;
    EXPECT_EQ(got.size(), want.size()) << what;
    EXPECT_EQ(got.nvals(), want.nvals()) << what;
    EXPECT_EQ(got.extract_tuples(), want.extract_tuples()) << what;
    for (const auto id : kOpCounters) {
        EXPECT_EQ(got_c[id], want_c[id])
            << what << " counter " << metrics::counter_name(id);
    }
}

/// Non-commutative, so a swapped argument order shows up.
int64_t
sub_twice(int64_t a, int64_t b)
{
    return a - 2 * b;
}

/// ewise_add(out, u, v) on private copies: the non-aliased reference.
Vector<int64_t>
fresh_add(const Vector<int64_t>& u, const Vector<int64_t>& v,
          metrics::Snapshot& counters)
{
    const Vector<int64_t> uc = u;
    const Vector<int64_t> vc = v;
    Vector<int64_t> out;
    const metrics::Interval interval;
    ewise_add(out, uc, vc, sub_twice);
    counters = interval.delta();
    return out;
}

TEST_P(GrbOpsVectorTest, EwiseAddOutputAliasingAnInputMatchesFreshOutput)
{
    for (const bool u_dense : {false, true}) {
        for (const bool v_dense : {false, true}) {
            const auto u = random_vector(300, 0.3, 41, u_dense);
            const auto v = random_vector(300, 0.3, 42, v_dense);
            const std::string what = "u_dense=" + std::to_string(u_dense) +
                " v_dense=" + std::to_string(v_dense);
            metrics::Snapshot want_c;
            const auto want = fresh_add(u, v, want_c);

            // w aliases u (the sparse operand when only v is dense).
            Vector<int64_t> w = u;
            const int64_t* before = w.dense_values().data();
            metrics::Interval interval;
            ewise_add(w, w, v, sub_twice);
            expect_identical(w, interval.delta(), want, want_c,
                             "w=u " + what);
            if (u_dense) {
                // The dense operand was folded into, not copied.
                EXPECT_EQ(w.dense_values().data(), before) << what;
            }

            // w aliases v: argument order must stay fn(u, v).
            w = v;
            before = w.dense_values().data();
            interval = metrics::Interval();
            ewise_add(w, u, w, sub_twice);
            expect_identical(w, interval.delta(), want, want_c,
                             "w=v " + what);
            if (v_dense) {
                EXPECT_EQ(w.dense_values().data(), before) << what;
            }
        }
    }
}

TEST_P(GrbOpsVectorTest, EwiseAddAllThreeAliasedMatchesFreshOutput)
{
    for (const bool dense : {false, true}) {
        const auto u = random_vector(300, 0.3, 43, dense);
        metrics::Snapshot want_c;
        const auto want = fresh_add(u, u, want_c);
        Vector<int64_t> w = u;
        const int64_t* before = w.dense_values().data();
        const metrics::Interval interval;
        ewise_add(w, w, w, sub_twice);
        expect_identical(w, interval.delta(), want, want_c,
                         "dense=" + std::to_string(dense));
        if (dense) {
            EXPECT_EQ(w.dense_values().data(), before);
        }
    }
}

TEST_P(GrbOpsVectorTest, EwiseAddInPlaceCountsNewPositions)
{
    // Dense w with entries at even positions; the delta adds odd ones
    // and overlaps some even ones.
    Vector<int64_t> w(1000);
    for (Index i = 0; i < 1000; i += 2) {
        w.set_element(i, 5);
    }
    w.densify();
    Vector<int64_t> delta(1000);
    Nnz fresh = 0;
    for (Index i = 0; i < 1000; i += 3) {
        delta.set_element(i, 1);
        fresh += i % 2;
    }
    const int64_t* before = w.dense_values().data();
    ewise_add(w, w, delta, [](int64_t a, int64_t b) { return a + b; });
    EXPECT_EQ(w.dense_values().data(), before);
    EXPECT_EQ(w.nvals(), 500 + fresh);
    Nnz explicit_entries = 0;
    w.for_entries([&](Index i, int64_t x) {
        ++explicit_entries;
        const int64_t want = (i % 2 == 0 ? 5 : 0) + (i % 3 == 0 ? 1 : 0);
        EXPECT_EQ(x, want) << i;
    });
    EXPECT_EQ(explicit_entries, w.nvals());
}

/// The same entries in sorted order, then reversed (unsorted storage).
Vector<int64_t>
unsorted_copy(const Vector<int64_t>& v)
{
    auto tuples = v.extract_tuples();
    std::reverse(tuples.begin(), tuples.end());
    TrackedVector<Index> idx;
    TrackedVector<int64_t> vals;
    for (const auto& [i, x] : tuples) {
        idx.push_back(i);
        vals.push_back(x);
    }
    Vector<int64_t> out(v.size());
    out.build(std::move(idx), std::move(vals), /*indices_sorted=*/false);
    return out;
}

TEST_P(GrbOpsVectorTest, VectorsEqual)
{
    // Large enough that the parallel pass splits into several blocks.
    const Index n = 20000;
    const auto base = random_vector(n, 0.5, 72, true);
    Vector<int64_t> sparse = base;
    sparse.sparsify();
    const std::vector<std::pair<std::string, Vector<int64_t>>> layouts = {
        {"dense", base},
        {"sparse", sparse},
        {"unsorted", unsorted_copy(base)},
    };
    Index last = 0;
    base.for_entries([&](Index i, int64_t) { last = i; });

    for (const auto& [uname, u] : layouts) {
        for (const auto& [vname, v] : layouts) {
            const std::string what = uname + "/" + vname;
            const metrics::Interval interval;
            EXPECT_TRUE(vectors_equal(u, v)) << what;
            const auto c = interval.delta();
            EXPECT_EQ(c[metrics::kPasses], 1u) << what;
            EXPECT_EQ(c[metrics::kWorkItems], 2 * base.nvals()) << what;
            EXPECT_EQ(c[metrics::kLabelReads], 2 * base.nvals()) << what;
            EXPECT_EQ(c[metrics::kBytesMaterialized], 0u) << what;

            // A value that differs only at the last explicit index.
            Vector<int64_t> changed = v;
            changed.set_element(last, *v.get_element(last) + 1);
            EXPECT_FALSE(vectors_equal(u, changed)) << what;
            EXPECT_FALSE(vectors_equal(changed, u)) << what;

            // Equal nvals, but one entry moved to an implicit position.
            Index hole = 0;
            while (v.get_element(hole).has_value()) {
                ++hole;
            }
            auto tuples = v.extract_tuples();
            tuples.front().first = hole;
            std::sort(tuples.begin(), tuples.end());
            Vector<int64_t> moved(n);
            for (const auto& [i, x] : tuples) {
                moved.set_element(i, x);
            }
            if (vname == "dense") {
                moved.densify();
            }
            ASSERT_EQ(moved.nvals(), v.nvals()) << what;
            EXPECT_FALSE(vectors_equal(u, moved)) << what;
            EXPECT_FALSE(vectors_equal(moved, u)) << what;

            // One entry more.
            Vector<int64_t> grown = v;
            grown.set_element(hole, 1);
            EXPECT_FALSE(vectors_equal(u, grown)) << what;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Backends, GrbOpsVectorTest,
                         ::testing::Values(Backend::kReference,
                                           Backend::kParallel),
                         [](const auto& info) {
                             return info.param == Backend::kReference
                                 ? "Reference"
                                 : "Parallel";
                         });

} // namespace
} // namespace gas::grb
