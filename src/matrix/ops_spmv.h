#pragma once

/**
 * @file
 * Sparse matrix-vector products.
 *
 * vxm (w = u * A) is the push-style kernel: it enumerates the explicit
 * entries of u and scatters along the corresponding rows of A into a
 * shared sparse accumulator (SAXPY form). Work is proportional to the
 * active entries' degrees — this is the kernel behind each round of a
 * round-based data-driven algorithm (bfs frontier expansion, sssp
 * relaxations).
 *
 * mxv (w = A * u) is the pull-style kernel (SDOT form): every row of A
 * computes a dot product against a dense u. Work is proportional to
 * nvals(A) — one full topology pass per call. Two mitigations recover
 * much of that cost for traversal workloads (the GraphBLAST recipe):
 * masked-out rows are skipped before the row is touched, and semirings
 * with an absorbing add element (LorLand's "any"-style OR) stop the
 * row scan at the first hit.
 *
 * mxv_sparse is the mask-driven pull variant: when the mask is sparse
 * it iterates only candidate rows (mask support, or its sorted
 * complement) instead of all n, producing a sparse output.
 *
 * All three kernels are storage-format aware (matrix/formats.h): with
 * a row bitmap the pull kernels iterate only nonempty rows and the
 * push kernel probes rows before touching their pointers; with SELL
 * slices and a SIMD-capable semiring the dense pull kernel runs the
 * vectorized slice sweep (matrix/simd_spmv.h). Every accelerated path
 * produces the same entries as the plain CSR scan — bit-identical for
 * the SELL sweep, value-identical for the order-free within-row path.
 */

#include "matrix/matrix.h"
#include "matrix/ops_common.h"
#include "matrix/semiring.h"
#include "matrix/simd_spmv.h"
#include "trace/trace.h"

namespace gas::grb {

namespace detail {

/**
 * Scan one matrix row against a densified u, returning whether any
 * entry contributed and leaving the accumulated value in @p accum.
 *
 * This is the shared inner loop of mxv and mxv_sparse. When
 * @p use_row_simd (caller established: SIMD enabled, u fully present,
 * column ids gather-safe) and the semiring's add is order-free, rows of
 * at least kCsrSimdMinRow entries run the vectorized within-row
 * accumulation; everything else takes the scalar loop with the
 * absorbing-element early exit.
 */
template <typename Semiring, typename T>
inline bool
pull_row_scan(const Matrix<T>& A, Index i, const uint8_t* upresent,
              const T* uvals, bool use_row_simd, T& accum,
              uint64_t& visited, uint64_t& short_circuited,
              simd::SimdStats& sstats)
{
    const Nnz begin = A.row_begin(i);
    const Nnz end = A.row_end(i);
    accum = Semiring::identity();
    if constexpr (simd::kHasSimd<Semiring> && simd::kSimdOrderFree<Semiring>) {
        if (use_row_simd && end - begin >= simd::kCsrSimdMinRow) {
            const Index len = static_cast<Index>(end - begin);
            accum = simd::csr_row_accumulate_avx2<Semiring>(
                A.row_indices(i).data(), A.row_values(i).data(), len,
                uvals, sstats);
            visited += len;
            metrics::bump(metrics::kLabelReads, len);
            return true;
        }
    }
    bool hit = false;
    for (Nnz e = begin; e < end; ++e) {
        ++visited;
        const Index j = A.col_at(e);
        if (upresent[j] != 0) {
            accum =
                Semiring::add(accum, Semiring::mul(A.val_at(e), uvals[j]));
            hit = true;
            metrics::bump(metrics::kLabelReads);
            if constexpr (HasAbsorbing<Semiring>) {
                // The add monoid saturated: no later edge can change
                // accum, so stop the row scan.
                if (accum == Semiring::absorbing()) {
                    short_circuited += end - (e + 1);
                    break;
                }
            }
        }
    }
    return hit;
}

} // namespace detail

/**
 * w<mask> = u * A over a semiring: w(j) = add_i mul(u(i), A(i,j)).
 *
 * Output always uses replace semantics (w is overwritten). The result
 * is sparse; the Reference backend sorts it, the Parallel backend
 * leaves it in insertion order (the paper's "unordered list").
 *
 * Cancellation: the row blocks run under do_all, whose chunk claims
 * are cancellation points. On a tripped CancelToken w holds the
 * contributions of the completed blocks only — a valid but partial
 * result; callers must treat w as indeterminate when
 * gas::cancel_status() is non-OK. The same contract applies to mxv,
 * mxv_sparse, mxm, and the fused/SIMD kernels built on these loops.
 */
template <typename Semiring, typename T, typename MT = uint8_t>
void
vxm(Vector<T>& w, const Vector<MT>* mask, const Descriptor& desc,
    const Vector<T>& u, const Matrix<T>& A)
{
    GAS_CHECK(u.size() == A.nrows(), "vxm dimension mismatch");
    trace::Span span(trace::Category::kGrb, "vxm", u.nvals());
    metrics::bump(metrics::kPasses);

    auto& spa = SpaWorkspace<T, Semiring>::get(A.ncols());
    T* const acc = spa.values();
    uint8_t* const occ = spa.occupied();
    rt::InsertBag<Index> touched;

    // With a row bitmap, probe each active row before touching its
    // pointers: frontiers over power-law graphs routinely land on
    // vertices with no out-edges. The kLabelReads bump for reading u's
    // entry still happens (in the skip path below), so label traffic
    // accounting matches the plain CSR scatter exactly.
    const RowBitmap* bitmap =
        A.storage_format() == StorageFormat::kBitmapCsr ? &A.row_bitmap()
                                                        : nullptr;

    auto scatter_row = [&](Index i, T x) {
        metrics::bump(metrics::kLabelReads);
        const Nnz begin = A.row_begin(i);
        const Nnz end = A.row_end(i);
        metrics::bump(metrics::kEdgeVisits, end - begin);
        metrics::bump(metrics::kWorkItems, end - begin);
        for (Nnz e = begin; e < end; ++e) {
            const Index j = A.col_at(e);
            const T product = Semiring::mul(x, A.val_at(e));
            atomic_accum(acc[j], product, [](T a, T b) {
                return Semiring::add(a, b);
            });
            metrics::bump(metrics::kLabelWrites);
            if (atomic_claim(occ[j])) {
                touched.push(j);
            }
        }
    };

    auto probe_skips = [&](Index i) {
        if (bitmap != nullptr && !bitmap->nonempty(i)) {
            metrics::bump(metrics::kLabelReads);
            return true;
        }
        return false;
    };

    if (u.format() == VectorFormat::kDense) {
        const auto& uvals = u.dense_values();
        const auto& upresent = u.dense_presence();
        rt::do_all_blocked(
            u.size(),
            [&](rt::Range range) {
                uint64_t bitmap_skips = 0;
                for (std::size_t i = range.begin; i < range.end; ++i) {
                    if (upresent[i] != 0) {
                        const Index row = static_cast<Index>(i);
                        if (probe_skips(row)) {
                            ++bitmap_skips;
                            continue;
                        }
                        scatter_row(row, uvals[i]);
                    }
                }
                if (bitmap_skips != 0) {
                    metrics::bump(metrics::kRowsSkippedBitmap,
                                  bitmap_skips);
                }
            },
            backend_schedule());
    } else {
        const auto& uidx = u.sparse_indices();
        const auto& uvals = u.sparse_values();
        rt::do_all_blocked(
            uidx.size(),
            [&](rt::Range range) {
                uint64_t bitmap_skips = 0;
                for (std::size_t k = range.begin; k < range.end; ++k) {
                    if (probe_skips(uidx[k])) {
                        ++bitmap_skips;
                        continue;
                    }
                    scatter_row(uidx[k], uvals[k]);
                }
                if (bitmap_skips != 0) {
                    metrics::bump(metrics::kRowsSkippedBitmap,
                                  bitmap_skips);
                }
            },
            backend_schedule());
    }

    // Compact the accumulator into a fresh sparse vector, applying the
    // mask, then restore the workspace invariant.
    const MaskView<MT> view(mask, desc);
    rt::InsertBag<std::pair<Index, T>> output;
    touched.parallel_apply([&](Index j) {
        if (view.test(j)) {
            output.push({j, acc[j]});
        }
    });
    spa.reset(touched);

    Vector<T> result(A.ncols());
    auto& oidx = result.sparse_indices();
    auto& ovals = result.sparse_values();
    oidx.reserve(output.size());
    ovals.reserve(output.size());
    output.for_each([&](const std::pair<Index, T>& entry) {
        oidx.push_back(entry.first);
        ovals.push_back(entry.second);
    });
    result.set_format(VectorFormat::kSparse);
    result.set_sorted(false);
    if (backend_sorts_outputs()) {
        result.sort_entries();
    }
    result.charge_materialized();
    w = std::move(result);
}

/**
 * w<mask> = A * u over a semiring: w(i) = add_j mul(A(i,j), u(j)).
 *
 * u is densified internally when sparse (a materialization the matrix
 * API cannot avoid for pull-style products). The result is dense.
 * Masked-out rows produce no entry (replace semantics).
 */
template <typename Semiring, typename T, typename MT = uint8_t>
void
mxv(Vector<T>& w, const Vector<MT>* mask, const Descriptor& desc,
    const Matrix<T>& A, const Vector<T>& u)
{
    GAS_CHECK(u.size() == A.ncols(), "mxv dimension mismatch");
    trace::Span span(trace::Category::kGrb, "mxv", u.nvals());
    metrics::bump(metrics::kPasses);

    const Vector<T>* uview = &u;
    Vector<T> dense_copy;
    if (u.format() != VectorFormat::kDense) {
        dense_copy = u;
        dense_copy.densify();
        uview = &dense_copy;
    }
    const auto& uvals = uview->dense_values();
    const auto& upresent = uview->dense_presence();
    const bool u_all_present =
        uview->nvals() == static_cast<Nnz>(uview->size());

    Vector<T> result(A.nrows());
    result.densify();
    auto& out = result.dense_values();
    auto& present = result.dense_presence();
    const MaskView<MT> view(mask, desc);
    std::atomic<Nnz> count{0};

    const StorageFormat fmt = A.storage_format();
    const bool use_simd = u_all_present && simd::simd_enabled() &&
        simd::simd_cols_ok(A.ncols());

    // SELL + SIMD fast path: one row per vector lane, bit-identical to
    // the scalar scan (each lane accumulates its row sequentially).
    // Absorbing semirings keep the scalar loop for its early exit, and
    // long-row order-free products keep the within-row path below
    // (prefer_sell_sweep).
    if constexpr (simd::kHasSimd<Semiring> && !HasAbsorbing<Semiring>) {
        if (fmt == StorageFormat::kSell && use_simd &&
            simd::prefer_sell_sweep<Semiring>(A.nvals(), A.nrows())) {
            const auto& sell = A.sell_slices();
            rt::do_all_blocked(
                sell.num_slices(),
                [&](rt::Range range) {
                    Nnz local = 0;
                    uint64_t skipped_rows = 0;
                    simd::SimdStats stats;
                    simd::sell_sweep_avx2<Semiring>(
                        sell, static_cast<Index>(range.begin),
                        static_cast<Index>(range.end), uvals.data(),
                        [&](Index i) {
                            if (view.test(i)) {
                                return true;
                            }
                            ++skipped_rows;
                            return false;
                        },
                        [&](Index i, T value) {
                            out[i] = value;
                            present[i] = 1;
                            ++local;
                            metrics::bump(metrics::kLabelWrites);
                        },
                        stats);
                    count.fetch_add(local, std::memory_order_relaxed);
                    metrics::bump(metrics::kEdgeVisits, stats.visited);
                    metrics::bump(metrics::kWorkItems, stats.visited);
                    // u is fully present: every visited entry read it.
                    metrics::bump(metrics::kLabelReads, stats.visited);
                    if (mask != nullptr) {
                        metrics::bump(metrics::kMaskSkippedRows,
                                      skipped_rows);
                    }
                    metrics::bump(metrics::kSimdLanesActive,
                                  stats.lanes_active);
                    metrics::bump(metrics::kSimdLaneSlots,
                                  stats.lane_slots);
                },
                backend_schedule());
            result.set_dense_nvals(count.load());
            result.charge_materialized();
            w = std::move(result);
            return;
        }
    }

    auto scan_rows = [&](rt::Range range, auto row_at) {
        Nnz local = 0;
        uint64_t skipped_rows = 0;
        uint64_t short_circuited = 0;
        uint64_t visited = 0;
        simd::SimdStats sstats;
        for (std::size_t ri = range.begin; ri < range.end; ++ri) {
            const Index i = row_at(ri);
            if (!view.test(i)) {
                ++skipped_rows;
                continue;
            }
            T accum;
            const bool hit = detail::pull_row_scan<Semiring>(
                A, i, upresent.data(), uvals.data(), use_simd, accum,
                visited, short_circuited, sstats);
            if (hit) {
                out[i] = accum;
                present[i] = 1;
                ++local;
                metrics::bump(metrics::kLabelWrites);
            }
        }
        count.fetch_add(local, std::memory_order_relaxed);
        metrics::bump(metrics::kEdgeVisits, visited);
        metrics::bump(metrics::kWorkItems, visited);
        if (mask != nullptr) {
            metrics::bump(metrics::kMaskSkippedRows, skipped_rows);
        }
        metrics::bump(metrics::kEdgesShortCircuited, short_circuited);
        if (sstats.lane_slots != 0) {
            metrics::bump(metrics::kSimdLanesActive, sstats.lanes_active);
            metrics::bump(metrics::kSimdLaneSlots, sstats.lane_slots);
        }
    };

    if (fmt == StorageFormat::kBitmapCsr) {
        // Drive the row loop from the compacted nonempty-row list:
        // empty rows (common under power-law generators) are skipped
        // without touching their row pointers or the mask.
        const auto rows = A.row_bitmap().nonempty_rows();
        metrics::bump(metrics::kRowsSkippedBitmap,
                      static_cast<uint64_t>(A.nrows()) - rows.size());
        rt::do_all_blocked(
            rows.size(),
            [&](rt::Range range) {
                scan_rows(range, [&](std::size_t ri) { return rows[ri]; });
            },
            backend_schedule());
    } else {
        rt::do_all_blocked(
            A.nrows(),
            [&](rt::Range range) {
                scan_rows(range, [](std::size_t ri) {
                    return static_cast<Index>(ri);
                });
            },
            backend_schedule());
    }
    result.set_dense_nvals(count.load());
    // The output bytes were charged when result.densify() allocated the
    // dense arrays (allocation-site accounting); re-billing them here
    // used to double-count every pull-style product.
    result.charge_materialized();
    w = std::move(result);
}

/**
 * Mask-driven pull kernel: w<mask> = A * u computed only for candidate
 * rows named by a *sparse* mask, producing a sparse output.
 *
 * Plain mxv spends O(n) on the row loop even when the mask admits a
 * handful of rows. With a sparse mask the candidate set is explicit:
 * the mask's support (or, complemented, the sorted gap sequence between
 * support entries), so this kernel's row loop is O(candidates) plus —
 * complemented — one merge over the support. Combined with the
 * absorbing-element early exit this is the bottom-up BFS step expressed
 * inside the matrix API.
 *
 * Requirements: mask != nullptr and sparse. With a value mask
 * (structural_mask unset), zero-valued mask entries are treated exactly
 * as MaskView would treat them: present-but-zero is "false", so under
 * complement those rows become candidates.
 */
template <typename Semiring, typename T, typename MT = uint8_t>
void
mxv_sparse(Vector<T>& w, const Vector<MT>& mask, const Descriptor& desc,
           const Matrix<T>& A, const Vector<T>& u)
{
    GAS_CHECK(u.size() == A.ncols(), "mxv_sparse dimension mismatch");
    GAS_CHECK(mask.format() == VectorFormat::kSparse,
              "mxv_sparse requires a sparse mask");
    trace::Span span(trace::Category::kGrb, "mxv_sparse", mask.nvals());
    metrics::bump(metrics::kPasses);

    const Vector<T>* uview = &u;
    Vector<T> dense_copy;
    if (u.format() != VectorFormat::kDense) {
        dense_copy = u;
        dense_copy.densify();
        uview = &dense_copy;
    }
    const auto& uvals = uview->dense_values();
    const auto& upresent = uview->dense_presence();

    // Materialize the candidate row list from the mask. "True" support
    // entries are the present ones (structural) or the present non-zero
    // ones (value mask); complement selects everything else.
    const Vector<MT>* mview = &mask;
    Vector<MT> sorted_mask;
    if (!mask.sorted()) {
        sorted_mask = mask;
        sorted_mask.sort_entries();
        mview = &sorted_mask;
    }
    const auto& midx = mview->sparse_indices();
    const auto& mvals = mview->sparse_values();

    TrackedVector<Index> candidates;
    uint64_t skipped_rows = 0;
    if (!desc.mask_complement) {
        candidates.reserve(midx.size());
        for (std::size_t k = 0; k < midx.size(); ++k) {
            if (desc.structural_mask || mvals[k] != MT{0}) {
                candidates.push_back(midx[k]);
            } else {
                ++skipped_rows;
            }
        }
        skipped_rows +=
            static_cast<uint64_t>(A.nrows()) - midx.size();
    } else {
        candidates.reserve(A.nrows() >= midx.size()
                               ? A.nrows() - midx.size()
                               : 0);
        std::size_t k = 0;
        for (Index i = 0; i < A.nrows(); ++i) {
            while (k < midx.size() && midx[k] < i) {
                ++k;
            }
            const bool present = k < midx.size() && midx[k] == i;
            const bool mask_true = present &&
                (desc.structural_mask || mvals[k] != MT{0});
            if (!mask_true) {
                candidates.push_back(i);
            } else {
                ++skipped_rows;
            }
        }
    }
    metrics::bump(metrics::kMaskSkippedRows, skipped_rows);
    metrics::charge_materialized(candidates.size() * sizeof(Index));

    // With a row bitmap, filter the candidate list down to rows that
    // actually hold entries before the parallel scan: an O(1) bit probe
    // per candidate replaces a row-pointer load, and empty candidates
    // (bulk-produced by complemented masks over power-law graphs) never
    // reach the work loop. Mask-skip accounting above is untouched —
    // these rows were admitted by the mask and would simply have
    // produced nothing.
    if (A.storage_format() == StorageFormat::kBitmapCsr) {
        const RowBitmap& bitmap = A.row_bitmap();
        std::size_t kept = 0;
        for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
            if (bitmap.nonempty(candidates[ci])) {
                candidates[kept++] = candidates[ci];
            }
        }
        metrics::bump(metrics::kRowsSkippedBitmap,
                      candidates.size() - kept);
        candidates.resize(kept);
    }

    const bool use_simd =
        uview->nvals() == static_cast<Nnz>(uview->size()) &&
        simd::simd_enabled() && simd::simd_cols_ok(A.ncols());

    rt::InsertBag<std::pair<Index, T>> output;
    rt::do_all_blocked(
        candidates.size(),
        [&](rt::Range range) {
            uint64_t short_circuited = 0;
            uint64_t visited = 0;
            simd::SimdStats sstats;
            for (std::size_t ci = range.begin; ci < range.end; ++ci) {
                const Index i = candidates[ci];
                T accum;
                const bool hit = detail::pull_row_scan<Semiring>(
                    A, i, upresent.data(), uvals.data(), use_simd, accum,
                    visited, short_circuited, sstats);
                if (hit) {
                    output.push({i, accum});
                    metrics::bump(metrics::kLabelWrites);
                }
            }
            metrics::bump(metrics::kEdgeVisits, visited);
            metrics::bump(metrics::kWorkItems, visited);
            metrics::bump(metrics::kEdgesShortCircuited, short_circuited);
            if (sstats.lane_slots != 0) {
                metrics::bump(metrics::kSimdLanesActive,
                              sstats.lanes_active);
                metrics::bump(metrics::kSimdLaneSlots, sstats.lane_slots);
            }
        },
        backend_schedule());

    Vector<T> result(A.nrows());
    auto& oidx = result.sparse_indices();
    auto& ovals = result.sparse_values();
    oidx.reserve(output.size());
    ovals.reserve(output.size());
    output.for_each([&](const std::pair<Index, T>& entry) {
        oidx.push_back(entry.first);
        ovals.push_back(entry.second);
    });
    result.set_format(VectorFormat::kSparse);
    result.set_sorted(false);
    if (backend_sorts_outputs()) {
        result.sort_entries();
    }
    result.charge_materialized();
    w = std::move(result);
}

/// Unmasked vxm convenience overload.
template <typename Semiring, typename T>
void
vxm(Vector<T>& w, const Descriptor& desc, const Vector<T>& u,
    const Matrix<T>& A)
{
    vxm<Semiring, T, uint8_t>(w, nullptr, desc, u, A);
}

/// Unmasked mxv convenience overload.
template <typename Semiring, typename T>
void
mxv(Vector<T>& w, const Descriptor& desc, const Matrix<T>& A,
    const Vector<T>& u)
{
    mxv<Semiring, T, uint8_t>(w, nullptr, desc, A, u);
}

} // namespace gas::grb
