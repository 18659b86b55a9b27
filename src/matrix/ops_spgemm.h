#pragma once

/**
 * @file
 * Sparse matrix-matrix multiplication (SpGEMM) and matrix-level helpers.
 *
 * Three SpGEMM methods mirror Section III of the paper:
 *
 *  - Gustavson SAXPY: per-thread dense accumulator of width B.ncols
 *    with a touched list; best for dense-ish rows.
 *  - Hash SAXPY: per-row open-addressing table; more memory-frugal
 *    than Gustavson at the price of probe work.
 *  - Masked dot (SDOT): computes only the entries named by a mask
 *    matrix by intersecting sorted rows of A with rows of
 *    (pre-transposed) B, through the row-cached intersection of
 *    graph/intersect.h that Lonestar's tc and k-truss share; this is the
 *    "SandiaDot" kernel used by triangle counting and k-truss.
 *
 * All methods materialize the full output matrix C — the behaviour the
 * paper contrasts with the graph API's fused kernels.
 */

#include "graph/intersect.h"
#include "matrix/matrix.h"
#include "matrix/ops_common.h"
#include "matrix/vector.h"
#include "runtime/per_thread.h"
#include "runtime/reducers.h"
#include "trace/trace.h"

namespace gas::grb {

/// Method selector for mxm (kAuto picks Gustavson for wide outputs,
/// hash otherwise, matching SuiteSparse's self-selection).
enum class MxmMethod {
    kAuto,
    kGustavson,
    kHash,
};

/**
 * Masked dot-product SpGEMM:
 * C(i,j) = add_k mul(A(i,k), Bt(j,k)) for every explicit (i,j) of M.
 *
 * @param Bt the *transpose* of the right operand, so each dot product
 *           intersects two sorted CSR rows.
 *
 * Each thread caches A(i,:) once per row in a graph::RowIntersector
 * (4 bytes per column of A, per thread, for the duration of the call)
 * and intersects it with Bt(j,:) for every mask entry of row i. Matches
 * are folded in ascending k, as a merge would, so results are
 * bit-identical to the merge for every semiring. kEdgeVisits counts
 * probes plus search steps.
 *
 * C inherits M's sparsity structure exactly.
 */
template <typename Semiring, typename T, typename MT>
void
mxm_masked_dot(Matrix<T>& C, const Matrix<MT>& M, const Matrix<T>& A,
               const Matrix<T>& Bt)
{
    GAS_CHECK(M.nrows() == A.nrows() && M.ncols() == Bt.nrows(),
              "mxm_masked_dot dimension mismatch");
    GAS_CHECK(A.ncols() == Bt.ncols(), "mxm_masked_dot inner mismatch");
    trace::Span span(trace::Category::kGrb, "mxm_masked_dot", M.nvals());
    metrics::bump(metrics::kPasses);

    Matrix<T> result(M.nrows(), M.ncols());
    result.raw_row_ptr() = M.raw_row_ptr();
    result.raw_col() = M.raw_col();
    // Taken once here: raw_vals() drops the matrix's derived storage,
    // which must not happen concurrently from the workers.
    auto& out = result.raw_vals();
    out.resize(M.nvals());
    metrics::charge_materialized(result.bytes());

    rt::PerThread<graph::RowIntersector<Index>> rows{
        graph::RowIntersector<Index>(A.ncols())};
    rt::do_all_blocked(
        M.nrows(),
        [&](rt::Range range) {
            auto& cached = rows.local();
            uint64_t steps = 0;
            uint64_t matches = 0;
            for (std::size_t ri = range.begin; ri < range.end; ++ri) {
                const Index i = static_cast<Index>(ri);
                if (M.row_nvals(i) == 0) {
                    continue;
                }
                const auto avals = A.row_values(i);
                cached.load(A.row_indices(i));
                for (Nnz e = M.row_begin(i); e < M.row_end(i); ++e) {
                    const Index j = M.col_at(e);
                    const auto bvals = Bt.row_values(j);
                    T accum = Semiring::identity();
                    steps += cached.intersect(
                        Bt.row_indices(j),
                        [&](std::size_t a, std::size_t b) {
                            accum = Semiring::add(
                                accum, Semiring::mul(avals[a], bvals[b]));
                            ++matches;
                            return true;
                        });
                    out[e] = accum;
                }
                cached.unload();
            }
            metrics::bump(metrics::kEdgeVisits, steps);
            metrics::bump(metrics::kWorkItems, matches);
            const Nnz writes = M.row_begin(static_cast<Index>(range.end)) -
                M.row_begin(static_cast<Index>(range.begin));
            metrics::bump(metrics::kLabelWrites, writes);
        },
        backend_schedule());
    C = std::move(result);
}

namespace detail {

/// Open-addressing accumulator for one output row (hash SAXPY).
template <typename T>
class RowHash
{
  public:
    void
    reset(std::size_t expected)
    {
        std::size_t capacity = 16;
        while (capacity < expected * 2) {
            capacity *= 2;
        }
        keys_.assign(capacity, kEmpty);
        vals_.resize(capacity);
        mask_ = capacity - 1;
        count_ = 0;
    }

    template <typename AddFn>
    void
    accum(Index key, T value, AddFn&& add)
    {
        std::size_t slot = hash(key) & mask_;
        while (true) {
            if (keys_[slot] == key) {
                vals_[slot] = add(vals_[slot], value);
                return;
            }
            if (keys_[slot] == kEmpty) {
                keys_[slot] = key;
                vals_[slot] = value;
                ++count_;
                return;
            }
            slot = (slot + 1) & mask_;
        }
    }

    std::size_t count() const { return count_; }

    template <typename Fn>
    void
    for_entries(Fn&& fn) const
    {
        for (std::size_t slot = 0; slot < keys_.size(); ++slot) {
            if (keys_[slot] != kEmpty) {
                fn(keys_[slot], vals_[slot]);
            }
        }
    }

  private:
    static constexpr Index kEmpty = ~Index{0};

    static std::size_t
    hash(Index key)
    {
        uint64_t x = key;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        return static_cast<std::size_t>(x ^ (x >> 27));
    }

    std::vector<Index> keys_;
    std::vector<T> vals_;
    std::size_t mask_{0};
    std::size_t count_{0};
};

} // namespace detail

/**
 * Unmasked SAXPY SpGEMM: C = A * B over a semiring.
 *
 * Each output row is accumulated independently (Gustavson dense
 * accumulator or per-row hash table), then rows are assembled into CSR.
 * Row order within each output row is sorted for the Reference backend
 * and for Gustavson-by-ascending-scan (which produces sorted rows for
 * free when compacting by column scan is affordable).
 */
template <typename Semiring, typename T>
void
mxm_saxpy(Matrix<T>& C, const Matrix<T>& A, const Matrix<T>& B,
          MxmMethod method = MxmMethod::kAuto)
{
    GAS_CHECK(A.ncols() == B.nrows(), "mxm_saxpy dimension mismatch");
    trace::Span span(trace::Category::kGrb, "mxm_saxpy", A.nvals());
    metrics::bump(metrics::kPasses);
    const Index nrows = A.nrows();
    const Index ncols = B.ncols();

    if (method == MxmMethod::kAuto) {
        // Heuristic: dense accumulators pay off when the average output
        // row is a noticeable fraction of the column dimension.
        const double avg_flops = A.nrows() == 0
            ? 0.0
            : static_cast<double>(A.nvals()) / A.nrows();
        method = avg_flops * 8 > ncols ? MxmMethod::kGustavson
                                       : MxmMethod::kHash;
    }

    std::vector<std::vector<std::pair<Index, T>>> rows(nrows);

    if (method == MxmMethod::kGustavson) {
        rt::PerThread<std::vector<T>> accumulators;
        rt::PerThread<std::vector<uint8_t>> flags;
        rt::PerThread<std::vector<Index>> touched;
        metrics::charge_materialized(static_cast<uint64_t>(rt::num_threads()) * ncols *
                          (sizeof(T) + 1));
        rt::do_all_blocked(
            nrows,
            [&](rt::Range range) {
                auto& acc = accumulators.local();
                auto& occ = flags.local();
                auto& hit = touched.local();
                if (acc.size() < ncols) {
                    acc.assign(ncols, Semiring::identity());
                    occ.assign(ncols, 0);
                }
                for (std::size_t ri = range.begin; ri < range.end; ++ri) {
                    const Index i = static_cast<Index>(ri);
                    hit.clear();
                    for (Nnz e = A.row_begin(i); e < A.row_end(i); ++e) {
                        const Index k = A.col_at(e);
                        const T aval = A.val_at(e);
                        metrics::bump(metrics::kEdgeVisits,
                                      B.row_nvals(k));
                        for (Nnz f = B.row_begin(k); f < B.row_end(k);
                             ++f) {
                            const Index j = B.col_at(f);
                            const T product =
                                Semiring::mul(aval, B.val_at(f));
                            if (occ[j] == 0) {
                                occ[j] = 1;
                                hit.push_back(j);
                                acc[j] = product;
                            } else {
                                acc[j] = Semiring::add(acc[j], product);
                            }
                            metrics::bump(metrics::kWorkItems);
                            metrics::bump(metrics::kLabelWrites);
                        }
                    }
                    auto& out = rows[i];
                    out.reserve(hit.size());
                    for (const Index j : hit) {
                        out.emplace_back(j, acc[j]);
                        acc[j] = Semiring::identity();
                        occ[j] = 0;
                    }
                    std::sort(out.begin(), out.end(),
                              [](const auto& x, const auto& y) {
                                  return x.first < y.first;
                              });
                }
            },
            backend_schedule());
    } else {
        rt::PerThread<detail::RowHash<T>> tables;
        rt::do_all_blocked(
            nrows,
            [&](rt::Range range) {
                auto& table = tables.local();
                for (std::size_t ri = range.begin; ri < range.end; ++ri) {
                    const Index i = static_cast<Index>(ri);
                    Nnz upper = 0;
                    for (Nnz e = A.row_begin(i); e < A.row_end(i); ++e) {
                        upper += B.row_nvals(A.col_at(e));
                    }
                    table.reset(static_cast<std::size_t>(
                        std::min<Nnz>(upper, ncols)));
                    for (Nnz e = A.row_begin(i); e < A.row_end(i); ++e) {
                        const Index k = A.col_at(e);
                        const T aval = A.val_at(e);
                        metrics::bump(metrics::kEdgeVisits,
                                      B.row_nvals(k));
                        for (Nnz f = B.row_begin(k); f < B.row_end(k);
                             ++f) {
                            table.accum(B.col_at(f),
                                        Semiring::mul(aval, B.val_at(f)),
                                        [](T x, T y) {
                                            return Semiring::add(x, y);
                                        });
                            metrics::bump(metrics::kWorkItems);
                            metrics::bump(metrics::kLabelWrites);
                        }
                    }
                    auto& out = rows[i];
                    out.reserve(table.count());
                    table.for_entries([&](Index j, T value) {
                        out.emplace_back(j, value);
                    });
                    std::sort(out.begin(), out.end(),
                              [](const auto& x, const auto& y) {
                                  return x.first < y.first;
                              });
                }
            },
            backend_schedule());
    }

    // Assemble CSR from the per-row results.
    Matrix<T> result(nrows, ncols);
    auto& row_ptr = result.raw_row_ptr();
    for (Index i = 0; i < nrows; ++i) {
        row_ptr[i + 1] = row_ptr[i] + rows[i].size();
    }
    auto& col = result.raw_col();
    auto& vals = result.raw_vals();
    col.resize(row_ptr[nrows]);
    vals.resize(row_ptr[nrows]);
    rt::do_all_blocked(
        nrows,
        [&](rt::Range range) {
            for (std::size_t ri = range.begin; ri < range.end; ++ri) {
                const Index i = static_cast<Index>(ri);
                Nnz slot = row_ptr[i];
                for (const auto& [j, value] : rows[i]) {
                    col[slot] = j;
                    vals[slot] = value;
                    ++slot;
                }
            }
        },
        backend_schedule());
    metrics::charge_materialized(result.bytes());
    C = std::move(result);
}

/**
 * Unmasked dot-product SpGEMM with an inspector (the paper's plain
 * SDOT): a symbolic pass merges each (row of A, row of Bt) pair to
 * count surviving entries and allocate C exactly, then a numeric pass
 * fills it. Requires no accumulator, but inspects every row pair whose
 * intersection might be non-empty, so it is only economical when the
 * output is dense-ish — kernels guard it behind small dimensions.
 *
 * @param Bt the transpose of the right operand.
 */
template <typename Semiring, typename T>
void
mxm_dot(Matrix<T>& C, const Matrix<T>& A, const Matrix<T>& Bt)
{
    GAS_CHECK(A.ncols() == Bt.ncols(), "mxm_dot inner mismatch");
    trace::Span span(trace::Category::kGrb, "mxm_dot", A.nvals());
    metrics::bump(metrics::kPasses, 2); // symbolic + numeric
    const Index nrows = A.nrows();
    const Index ncols = Bt.nrows();

    auto intersects = [&](Index i, Index j) {
        const auto arow = A.row_indices(i);
        const auto brow = Bt.row_indices(j);
        std::size_t a = 0;
        std::size_t b = 0;
        while (a < arow.size() && b < brow.size()) {
            metrics::bump(metrics::kEdgeVisits);
            if (arow[a] < brow[b]) {
                ++a;
            } else if (arow[a] > brow[b]) {
                ++b;
            } else {
                return true;
            }
        }
        return false;
    };

    // Inspector: exact per-row output counts.
    Matrix<T> result(nrows, ncols);
    auto& row_ptr = result.raw_row_ptr();
    TrackedVector<Nnz> counts(nrows, Nnz{0});
    rt::do_all_blocked(
        nrows,
        [&](rt::Range range) {
            for (std::size_t ri = range.begin; ri < range.end; ++ri) {
                const Index i = static_cast<Index>(ri);
                if (A.row_nvals(i) == 0) {
                    continue;
                }
                Nnz kept = 0;
                for (Index j = 0; j < ncols; ++j) {
                    if (intersects(i, j)) {
                        ++kept;
                    }
                }
                counts[i] = kept;
            }
        },
        backend_schedule());
    for (Index i = 0; i < nrows; ++i) {
        row_ptr[i + 1] = row_ptr[i] + counts[i];
    }
    auto& col = result.raw_col();
    auto& vals = result.raw_vals();
    col.resize(row_ptr[nrows]);
    vals.resize(row_ptr[nrows]);
    metrics::charge_materialized(result.bytes());

    // Numeric pass: recompute the dots into the exact-size arrays.
    rt::do_all_blocked(
        nrows,
        [&](rt::Range range) {
            for (std::size_t ri = range.begin; ri < range.end; ++ri) {
                const Index i = static_cast<Index>(ri);
                if (counts[i] == 0) {
                    continue;
                }
                Nnz slot = row_ptr[i];
                const auto arow = A.row_indices(i);
                const auto avals = A.row_values(i);
                for (Index j = 0; j < ncols; ++j) {
                    const auto brow = Bt.row_indices(j);
                    const auto bvals = Bt.row_values(j);
                    T accum = Semiring::identity();
                    bool hit = false;
                    std::size_t a = 0;
                    std::size_t b = 0;
                    while (a < arow.size() && b < brow.size()) {
                        if (arow[a] < brow[b]) {
                            ++a;
                        } else if (arow[a] > brow[b]) {
                            ++b;
                        } else {
                            accum = Semiring::add(
                                accum,
                                Semiring::mul(avals[a], bvals[b]));
                            hit = true;
                            metrics::bump(metrics::kWorkItems);
                            ++a;
                            ++b;
                        }
                    }
                    if (hit) {
                        col[slot] = j;
                        vals[slot] = accum;
                        ++slot;
                        metrics::bump(metrics::kLabelWrites);
                    }
                }
            }
        },
        backend_schedule());
    C = std::move(result);
}

/// Matrix selection: C keeps the entries (i, j, v) of A with pred(i,j,v).
template <typename T, typename Pred>
void
select_matrix(Matrix<T>& C, const Matrix<T>& A, Pred&& pred)
{
    trace::Span span(trace::Category::kGrb, "select_matrix", A.nvals());
    metrics::bump(metrics::kPasses);
    const Index nrows = A.nrows();
    Matrix<T> result(nrows, A.ncols());
    auto& row_ptr = result.raw_row_ptr();

    // Pass 1: per-row survivor counts.
    TrackedVector<Nnz> counts(nrows, Nnz{0});
    rt::do_all_blocked(
        nrows,
        [&](rt::Range range) {
            for (std::size_t ri = range.begin; ri < range.end; ++ri) {
                const Index i = static_cast<Index>(ri);
                Nnz kept = 0;
                for (Nnz e = A.row_begin(i); e < A.row_end(i); ++e) {
                    metrics::bump(metrics::kWorkItems);
                    if (pred(i, A.col_at(e), A.val_at(e))) {
                        ++kept;
                    }
                }
                counts[i] = kept;
            }
        },
        backend_schedule());
    for (Index i = 0; i < nrows; ++i) {
        row_ptr[i + 1] = row_ptr[i] + counts[i];
    }
    auto& col = result.raw_col();
    auto& vals = result.raw_vals();
    col.resize(row_ptr[nrows]);
    vals.resize(row_ptr[nrows]);

    // Pass 2: fill.
    rt::do_all_blocked(
        nrows,
        [&](rt::Range range) {
            for (std::size_t ri = range.begin; ri < range.end; ++ri) {
                const Index i = static_cast<Index>(ri);
                Nnz slot = row_ptr[i];
                for (Nnz e = A.row_begin(i); e < A.row_end(i); ++e) {
                    if (pred(i, A.col_at(e), A.val_at(e))) {
                        col[slot] = A.col_at(e);
                        vals[slot] = A.val_at(e);
                        ++slot;
                        metrics::bump(metrics::kLabelWrites);
                    }
                }
            }
        },
        backend_schedule());
    metrics::charge_materialized(result.bytes());
    C = std::move(result);
}

/// Strict lower triangle of A (entries with row > col).
template <typename T>
Matrix<T>
tril(const Matrix<T>& A)
{
    Matrix<T> L;
    select_matrix(L, A, [](Index i, Index j, T) { return i > j; });
    return L;
}

/// Strict upper triangle of A (entries with row < col).
template <typename T>
Matrix<T>
triu(const Matrix<T>& A)
{
    Matrix<T> U;
    select_matrix(U, A, [](Index i, Index j, T) { return i < j; });
    return U;
}

/**
 * Kronecker product C = A (x) B over a semiring's multiply:
 * C(i*Brows + k, j*Bcols + l) = mul(A(i,j), B(k,l)).
 *
 * This is the GrB_kronecker operation; repeated Kronecker powers of a
 * small initiator matrix generate RMAT-family graphs, which is how the
 * GraphBLAS ecosystem builds synthetic power-law inputs.
 */
template <typename Semiring, typename T>
void
kronecker(Matrix<T>& C, const Matrix<T>& A, const Matrix<T>& B)
{
    const Index nrows = A.nrows() * B.nrows();
    const Index ncols = A.ncols() * B.ncols();
    metrics::bump(metrics::kPasses);

    Matrix<T> result(nrows, ncols);
    auto& row_ptr = result.raw_row_ptr();
    for (Index i = 0; i < A.nrows(); ++i) {
        for (Index k = 0; k < B.nrows(); ++k) {
            const Index row = i * B.nrows() + k;
            row_ptr[row + 1] = row_ptr[row] +
                A.row_nvals(i) * B.row_nvals(k);
        }
    }
    auto& col = result.raw_col();
    auto& vals = result.raw_vals();
    col.resize(row_ptr[nrows]);
    vals.resize(row_ptr[nrows]);
    metrics::charge_materialized(result.bytes());

    rt::do_all_blocked(
        nrows,
        [&](rt::Range range) {
            for (std::size_t ri = range.begin; ri < range.end; ++ri) {
                const Index row = static_cast<Index>(ri);
                const Index i = row / B.nrows();
                const Index k = row % B.nrows();
                Nnz slot = row_ptr[row];
                for (Nnz e = A.row_begin(i); e < A.row_end(i); ++e) {
                    const Index j = A.col_at(e);
                    const T aval = A.val_at(e);
                    for (Nnz f = B.row_begin(k); f < B.row_end(k); ++f) {
                        col[slot] = j * B.ncols() + B.col_at(f);
                        vals[slot] = Semiring::mul(aval, B.val_at(f));
                        ++slot;
                        metrics::bump(metrics::kWorkItems);
                    }
                }
            }
        },
        backend_schedule());
    C = std::move(result);
}

/// Monoid reduction over all explicit entries of A.
template <typename Monoid, typename T>
T
reduce_matrix(const Matrix<T>& A)
{
    trace::Span span(trace::Category::kGrb, "reduce_matrix", A.nvals());
    metrics::bump(metrics::kPasses);
    auto merge = [](T a, T b) { return Monoid::add(a, b); };
    rt::Reducer<T, decltype(merge)> reducer(Monoid::identity(), merge);
    rt::do_all_blocked(
        A.nrows(),
        [&](rt::Range range) {
            T local = Monoid::identity();
            for (std::size_t ri = range.begin; ri < range.end; ++ri) {
                const Index i = static_cast<Index>(ri);
                for (Nnz e = A.row_begin(i); e < A.row_end(i); ++e) {
                    local = Monoid::add(local, A.val_at(e));
                    metrics::bump(metrics::kLabelReads);
                    metrics::bump(metrics::kWorkItems);
                }
            }
            reducer.update(local);
        },
        backend_schedule());
    return reducer.reduce();
}

/// Dense vector of per-row explicit-entry counts (out-degrees when A is
/// an adjacency matrix).
template <typename T>
Vector<T>
row_counts(const Matrix<T>& A)
{
    metrics::bump(metrics::kPasses);
    Vector<T> w(A.nrows());
    w.densify();
    auto& vals = w.dense_values();
    auto& present = w.dense_presence();
    rt::do_all_blocked(
        A.nrows(),
        [&](rt::Range range) {
            for (std::size_t i = range.begin; i < range.end; ++i) {
                vals[i] = static_cast<T>(
                    A.row_nvals(static_cast<Index>(i)));
                present[i] = 1;
                metrics::bump(metrics::kLabelWrites);
            }
        },
        backend_schedule());
    w.set_dense_nvals(A.nrows());
    return w;
}

/// C = f(A) entry-wise, preserving structure.
template <typename T, typename Fn>
void
apply_matrix(Matrix<T>& C, const Matrix<T>& A, Fn&& fn)
{
    trace::Span span(trace::Category::kGrb, "apply_matrix", A.nvals());
    metrics::bump(metrics::kPasses);
    Matrix<T> result = A;
    auto& vals = result.raw_vals();
    rt::do_all_blocked(
        vals.size(),
        [&](rt::Range range) {
            for (std::size_t e = range.begin; e < range.end; ++e) {
                vals[e] = fn(vals[e]);
                metrics::bump(metrics::kWorkItems);
            }
        },
        backend_schedule());
    metrics::charge_materialized(result.bytes());
    C = std::move(result);
}

} // namespace gas::grb
