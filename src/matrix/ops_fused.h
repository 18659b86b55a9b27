#pragma once

/**
 * @file
 * Fused composite kernels: single-pass implementations of the operator
 * chains the lazy planner (src/matrix/lazy.h) recognizes.
 *
 * The paper's limitation #1 for the matrix API is forced
 * materialization: every GrB_* call writes a full output object, so a
 * chain like vxm -> assign or eWiseMult -> select streams each
 * intermediate through memory once on the way out and once on the way
 * back in. These kernels collapse such chains:
 *
 *  - vxm_fused / mxv_fused run one SpMV and invoke a caller-supplied
 *    per-entry hook ("extras") on every emitted output entry while it
 *    is still in registers — the hook is where a downstream apply
 *    (value transform) or masked assign (side effect into another
 *    vector) lands.
 *  - dispatch_spmv_fused routes the fused SpMV through the
 *    direction-optimizing dispatcher so composite chains get the exact
 *    push/pull pricing, mask-skip, and early-exit behavior of plain
 *    dispatch_spmv instead of regressing to pure push. With the lazy
 *    planner's assign hook as its extras it is the traversal composite
 *    (SpMV + masked scalar assign into the mask vector itself, i.e. one
 *    BFS round).
 *  - fused_ewise_assign / fused_ewise_mult_select are the element-wise
 *    composites (eWise feeding a masked assign, eWiseMult feeding a
 *    select) with the intermediate vector never materialized.
 *
 * Algorithms never call these kernels by name. They are written once
 * against the grb::lazy recorders, which run the plain eager ops in
 * blocking mode; a caller selects these kernels by running the same
 * algorithm under ExecModeScope(ExecMode::kNonBlocking).
 *
 * The SpMV kernels accept an optional recycle buffer: the output is built
 * into the recycled storage and the previous output's storage is handed
 * back, so a round-based algorithm's per-round output stops being a
 * fresh allocation. Combined with Vector's capacity-watermark
 * accounting this is what makes kBytesMaterialized drop under fusion:
 * reused capacity is simply never charged again.
 */

#include "matrix/ops_dispatch.h"
#include "matrix/ops_vector.h"

namespace gas::grb {

/// Dense-operand view for pull-style products: reads u(j) directly.
template <typename T>
struct DirectUView
{
    const uint8_t* present;
    const T* vals;

    bool has(Index j) const { return present[j] != 0; }
    T value(Index j) const { return vals[j]; }
};

/**
 * Dense-dense eWiseMult into recycled dense storage: the input-
 * materialization step of the fused eWiseMult -> mxv chain. Identical
 * output to the eager dense-dense ewise_mult, but @p result keeps its
 * capacity across calls, so steady-state rounds charge zero
 * kBytesMaterialized (the watermark bills only growth). Computing the
 * product per edge inside the pull kernel instead was measured slower:
 * an average in-degree of edges/vertex type-erased multiplies per
 * round costs more than the one vertex-sized pass it saves.
 */
template <typename T, typename Fn>
void
ewise_mult_recycle(Vector<T>& result, Index n, const uint8_t* a_present,
                   const T* a_vals, const uint8_t* b_present,
                   const T* b_vals, const Fn& fn)
{
    trace::Span span(trace::Category::kGrb, "ewise_mult", n);
    metrics::bump(metrics::kPasses);
    result.dense_values().assign(n, T{});
    result.dense_presence().assign(n, 0);
    result.set_format(VectorFormat::kDense);
    auto& vals = result.dense_values();
    auto& present = result.dense_presence();
    std::atomic<Nnz> count{0};
    rt::do_all_blocked(
        n,
        [&](rt::Range range) {
            Nnz local = 0;
            for (std::size_t i = range.begin; i < range.end; ++i) {
                metrics::bump(metrics::kWorkItems);
                if (a_present[i] != 0 && b_present[i] != 0) {
                    vals[i] = fn(a_vals[i], b_vals[i]);
                    present[i] = 1;
                    ++local;
                    metrics::bump(metrics::kLabelReads, 2);
                    metrics::bump(metrics::kLabelWrites);
                }
            }
            count.fetch_add(local, std::memory_order_relaxed);
        },
        backend_schedule());
    result.set_dense_nvals(count.load());
    result.charge_materialized();
}

/**
 * Push-style fused SpMV: w<mask> = u * A with a per-entry hook.
 *
 * Identical semantics to vxm (replace on w, sparse output, backend
 * ordering), plus: a dense mask is additionally tested per scattered
 * edge so masked-out columns never enter the accumulator, and @p extras
 * is invoked as extras(j, value) on each entry that survives the mask,
 * before the entry is written. @p recycle, when non-null, donates its
 * storage to the output and receives w's old storage back.
 */
template <typename Semiring, typename T, typename MT = uint8_t,
          typename Extras>
void
vxm_fused(Vector<T>& w, const Vector<MT>* mask, const Descriptor& desc,
          const Vector<T>& u, const Matrix<T>& A, Extras&& extras,
          Vector<T>* recycle = nullptr)
{
    GAS_CHECK(u.size() == A.nrows(), "vxm_fused dimension mismatch");
    GAS_CHECK(recycle != &w, "vxm_fused: recycle must not alias w");
    trace::Span span(trace::Category::kGrb, "vxm_fused", u.nvals());
    metrics::bump(metrics::kPasses);

    auto& spa = SpaWorkspace<T, Semiring>::get(A.ncols());
    T* const acc = spa.values();
    uint8_t* const occ = spa.occupied();
    rt::InsertBag<Index> touched;

    // Per-edge mask skip: a dense mask is O(1)-testable in place, so
    // ruled-out columns are dropped before they cost an accumulator
    // CAS. (Sparse masks are only applied at compaction below; the
    // binary search per edge would cost more than it saves.)
    const bool edge_mask =
        mask != nullptr && mask->format() == VectorFormat::kDense;
    const uint8_t* const mpresent =
        edge_mask ? mask->dense_presence().data() : nullptr;
    const MT* const mvals =
        edge_mask ? mask->dense_values().data() : nullptr;

    // Same row-bitmap probe as plain vxm: skip empty rows before their
    // pointers are touched (kLabelReads parity is kept by billing the
    // u-entry read in the skip path).
    const RowBitmap* bitmap =
        A.storage_format() == StorageFormat::kBitmapCsr ? &A.row_bitmap()
                                                        : nullptr;
    auto probe_skips = [&](Index i) {
        if (bitmap != nullptr && !bitmap->nonempty(i)) {
            metrics::bump(metrics::kLabelReads);
            return true;
        }
        return false;
    };

    auto scatter_row = [&](Index i, T x) {
        metrics::bump(metrics::kLabelReads);
        const Nnz begin = A.row_begin(i);
        const Nnz end = A.row_end(i);
        metrics::bump(metrics::kEdgeVisits, end - begin);
        metrics::bump(metrics::kWorkItems, end - begin);
        for (Nnz e = begin; e < end; ++e) {
            const Index j = A.col_at(e);
            if (edge_mask &&
                !mask_entry_true(mpresent[j] != 0, mvals[j],
                                 desc.structural_mask,
                                 desc.mask_complement)) {
                continue;
            }
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
        const auto& usv = u.sparse_values();
        rt::do_all_blocked(
            uidx.size(),
            [&](rt::Range range) {
                uint64_t bitmap_skips = 0;
                for (std::size_t k = range.begin; k < range.end; ++k) {
                    if (probe_skips(uidx[k])) {
                        ++bitmap_skips;
                        continue;
                    }
                    scatter_row(uidx[k], usv[k]);
                }
                if (bitmap_skips != 0) {
                    metrics::bump(metrics::kRowsSkippedBitmap,
                                  bitmap_skips);
                }
            },
            backend_schedule());
    }

    // Compact with the mask, running the fused hook on each survivor.
    // touched holds each column at most once (atomic_claim), so
    // extras(j, .) is called at most once per index.
    const MaskView<MT> view(mask, desc);
    rt::InsertBag<std::pair<Index, T>> output;
    touched.parallel_apply([&](Index j) {
        if (view.test(j)) {
            T value = acc[j];
            extras(j, value);
            output.push({j, value});
        }
    });
    spa.reset(touched);

    Vector<T> result(A.ncols());
    if (recycle != nullptr) {
        result = std::move(*recycle);
        result.clear_keep_capacity(A.ncols());
    }
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
    if (recycle != nullptr) {
        // Hand w's old storage back only after all reads of u are done
        // (u may alias w in round-based callers).
        *recycle = std::move(w);
    }
    w = std::move(result);
}

/**
 * Pull-style fused SpMV over a generic operand view:
 * w<mask> = A * u with w(i) = add_j mul(A(i,j), uview(j)), @p extras
 * invoked on each emitted row entry. Same mask-skip and
 * absorbing-element early exit as plain mxv; dense output.
 *
 * Format-aware like plain mxv: @p udense, when non-null, asserts that
 * the view is a fully present dense array starting there, which
 * unlocks the SELL + SIMD slice sweep (extras applied in the emit
 * hook, still pre-store); a row bitmap drives the row loop over
 * nonempty rows only.
 */
template <typename Semiring, typename T, typename MT, typename UView,
          typename Extras>
void
mxv_fused(Vector<T>& w, const Vector<MT>* mask, const Descriptor& desc,
          const Matrix<T>& A, UView uview, Extras&& extras,
          Vector<T>* recycle = nullptr, const T* udense = nullptr)
{
    GAS_CHECK(recycle != &w, "mxv_fused: recycle must not alias w");
    trace::Span span(trace::Category::kGrb, "mxv_fused", A.nrows());
    metrics::bump(metrics::kPasses);

    Vector<T> result(A.nrows());
    if (recycle != nullptr) {
        result = std::move(*recycle);
        result.clear_keep_capacity(A.nrows());
    }
    // Build the dense arrays with assign (not densify) so a recycled
    // buffer's capacity is actually reused instead of reallocated.
    result.dense_values().assign(A.nrows(), T{});
    result.dense_presence().assign(A.nrows(), uint8_t{0});
    result.set_format(VectorFormat::kDense);
    result.set_dense_nvals(0);
    auto& out = result.dense_values();
    auto& present = result.dense_presence();
    const MaskView<MT> view(mask, desc);
    std::atomic<Nnz> count{0};

    const StorageFormat fmt = A.storage_format();

    // SELL + SIMD fast path, as in plain mxv; extras runs inside the
    // emit hook so the fused semantics (hook before the store) hold.
    bool simd_done = false;
    if constexpr (simd::kHasSimd<Semiring> && !HasAbsorbing<Semiring>) {
        // Unlike plain mxv, the fallthrough here is a fully scalar
        // scan (no within-row SIMD variant of the fused hook), so the
        // sweep is taken whenever it is legal — prefer_sell_sweep's
        // long-row exception has no better path to defer to.
        if (fmt == StorageFormat::kSell && udense != nullptr &&
            simd::simd_enabled() && simd::simd_cols_ok(A.ncols())) {
            const auto& sell = A.sell_slices();
            rt::do_all_blocked(
                sell.num_slices(),
                [&](rt::Range range) {
                    Nnz local = 0;
                    uint64_t skipped_rows = 0;
                    simd::SimdStats stats;
                    simd::sell_sweep_avx2<Semiring>(
                        sell, static_cast<Index>(range.begin),
                        static_cast<Index>(range.end), udense,
                        [&](Index i) {
                            if (view.test(i)) {
                                return true;
                            }
                            ++skipped_rows;
                            return false;
                        },
                        [&](Index i, T value) {
                            extras(i, value);
                            out[i] = value;
                            present[i] = 1;
                            ++local;
                            metrics::bump(metrics::kLabelWrites);
                        },
                        stats);
                    count.fetch_add(local, std::memory_order_relaxed);
                    metrics::bump(metrics::kEdgeVisits, stats.visited);
                    metrics::bump(metrics::kWorkItems, stats.visited);
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
            simd_done = true;
        }
    }

    auto scan_rows = [&](rt::Range range, auto row_at) {
        Nnz local = 0;
        uint64_t skipped_rows = 0;
        uint64_t short_circuited = 0;
        uint64_t visited = 0;
        for (std::size_t ri = range.begin; ri < range.end; ++ri) {
            const Index i = row_at(ri);
            if (!view.test(i)) {
                ++skipped_rows;
                continue;
            }
            T accum = Semiring::identity();
            bool hit = false;
            const Nnz begin = A.row_begin(i);
            const Nnz end = A.row_end(i);
            for (Nnz e = begin; e < end; ++e) {
                ++visited;
                const Index j = A.col_at(e);
                if (uview.has(j)) {
                    accum = Semiring::add(
                        accum,
                        Semiring::mul(A.val_at(e), uview.value(j)));
                    hit = true;
                    metrics::bump(metrics::kLabelReads);
                    if constexpr (HasAbsorbing<Semiring>) {
                        if (accum == Semiring::absorbing()) {
                            short_circuited += end - (e + 1);
                            break;
                        }
                    }
                }
            }
            if (hit) {
                T value = accum;
                extras(i, value);
                out[i] = value;
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
    };

    if (simd_done) {
        // Output already built by the slice sweep.
    } else if (fmt == StorageFormat::kBitmapCsr) {
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
    result.charge_materialized();
    if (recycle != nullptr) {
        *recycle = std::move(w);
    }
    w = std::move(result);
}

/**
 * Direction-optimized fused SpMV: plan through the dispatcher, run the
 * fused kernel for the chosen direction, and record the outcome so the
 * dispatcher's hysteresis state stays coherent with plain dispatches.
 *
 * vxm orientation (w = u * A); the pull path uses the dispatcher's
 * transpose with FlipMul, exactly like SpmvDispatcher::dispatch_spmv.
 * The pull + sparse-mask shape keeps mxv_sparse's candidate enumeration
 * and applies @p extras in a post-pass over the (already compacted)
 * output — still one logical operation, no intermediate beyond the
 * output itself.
 */
template <typename Semiring, typename T, typename MT, typename Extras>
Direction
dispatch_spmv_fused(SpmvDispatcher<T>& dispatcher, Vector<T>& w,
                    const Vector<MT>* mask, const Descriptor& desc,
                    const Vector<T>& u, Extras&& extras,
                    Vector<T>* recycle = nullptr)
{
    const Direction dir =
        dispatcher.template plan<Semiring>(mask, desc, u);
    if (dir == Direction::kPush) {
        vxm_fused<Semiring>(w, mask, desc, u, dispatcher.matrix(),
                            extras, recycle);
    } else {
        const Matrix<T>& At = *dispatcher.transpose();
        if (mask != nullptr &&
            mask->format() == VectorFormat::kSparse) {
            mxv_sparse<FlipMul<Semiring>>(w, *mask, desc, At, u);
            auto& ovals = w.sparse_values();
            const auto& oidx = w.sparse_indices();
            for (std::size_t k = 0; k < oidx.size(); ++k) {
                extras(oidx[k], ovals[k]);
            }
        } else {
            const Vector<T>* uview = &u;
            Vector<T> dense_copy;
            if (u.format() != VectorFormat::kDense) {
                dense_copy = u;
                dense_copy.densify();
                uview = &dense_copy;
            }
            // A fully present operand unlocks the SELL + SIMD sweep.
            const T* udense =
                uview->nvals() == static_cast<Nnz>(uview->size())
                ? uview->dense_values().data()
                : nullptr;
            mxv_fused<FlipMul<Semiring>>(
                w, mask, desc, At,
                DirectUView<T>{uview->dense_presence().data(),
                               uview->dense_values().data()},
                extras, recycle, udense);
        }
    }
    dispatcher.note_executed(dir);
    return dir;
}

/**
 * Element-wise composite: w = u op v (intersection for eWiseMult,
 * union for eWiseAdd) with @p sink.assign_at(i) fired at every produced
 * entry the assign's implicit value mask admits (every produced entry
 * when @p structural_assign). Operands must both be dense — the only
 * shape the lazy planner fuses; other shapes fall back to the eager
 * pair. Eager equivalent:
 *
 *   ewise_mult(w, u, v, op);          // or ewise_add
 *   assign_scalar(target, &w, d, s);  // d non-complement, non-replace
 *
 * @p sink is any type with the AssignSink shape (lazy.h): callable
 * prepare / assign_at(Index) / finish members, each testable in a
 * boolean context and skipped when unset.
 */
template <typename T, typename Fn, typename Sink>
void
fused_ewise_assign(Vector<T>& w, const Vector<T>& u, const Vector<T>& v,
                   Fn&& fn, bool intersection, bool structural_assign,
                   const Sink& sink)
{
    GAS_CHECK(u.size() == v.size(),
              "fused_ewise_assign dimension mismatch");
    GAS_CHECK(u.format() == VectorFormat::kDense &&
                  v.format() == VectorFormat::kDense,
              "fused_ewise_assign requires dense operands");
    trace::Span span(trace::Category::kGrb, "ewise_fused_assign",
                     u.nvals());
    metrics::bump(metrics::kPasses);
    if (sink.prepare) {
        sink.prepare();
    }

    Vector<T> result(u.size());
    result.densify();
    auto& vals = result.dense_values();
    auto& present = result.dense_presence();
    const auto& uvals = u.dense_values();
    const auto& upresent = u.dense_presence();
    const auto& vvals = v.dense_values();
    const auto& vpresent = v.dense_presence();
    std::atomic<Nnz> count{0};
    rt::do_all_blocked(
        u.size(),
        [&](rt::Range range) {
            Nnz local = 0;
            for (std::size_t i = range.begin; i < range.end; ++i) {
                metrics::bump(metrics::kWorkItems);
                const bool up = upresent[i] != 0;
                const bool vp = vpresent[i] != 0;
                T value;
                if (up && vp) {
                    value = fn(uvals[i], vvals[i]);
                    metrics::bump(metrics::kLabelReads, 2);
                } else if (!intersection && up) {
                    value = uvals[i];
                    metrics::bump(metrics::kLabelReads);
                } else if (!intersection && vp) {
                    value = vvals[i];
                    metrics::bump(metrics::kLabelReads);
                } else {
                    continue;
                }
                vals[i] = value;
                present[i] = 1;
                ++local;
                metrics::bump(metrics::kLabelWrites);
                if (sink.assign_at &&
                    (structural_assign || value != T{0})) {
                    sink.assign_at(static_cast<Index>(i));
                }
            }
            count.fetch_add(local, std::memory_order_relaxed);
        },
        backend_schedule());
    result.set_dense_nvals(count.load());
    result.charge_materialized();
    w = std::move(result);
    if (sink.finish) {
        sink.finish();
    }
}

/**
 * Element-wise composite: w = the entries (i, fn(u(i), v(i))) over the
 * support intersection where pred(i, value). The eWiseMult -> select
 * chain with the full product vector never materialized. Eager
 * equivalent:
 *
 *   ewise_mult(tmp, u, v, fn);
 *   select_entries(w, tmp, pred);
 */
template <typename T, typename Fn, typename Pred>
void
fused_ewise_mult_select(Vector<T>& w, const Vector<T>& u,
                        const Vector<T>& v, Fn&& fn, Pred&& pred)
{
    GAS_CHECK(u.size() == v.size(),
              "fused_ewise_mult_select dimension mismatch");
    trace::Span span(trace::Category::kGrb, "ewise_mult_select",
                     u.nvals());
    metrics::bump(metrics::kPasses);

    Vector<T> result(u.size());

    if (u.format() == VectorFormat::kDense &&
        v.format() == VectorFormat::kDense) {
        const auto& uvals = u.dense_values();
        const auto& upresent = u.dense_presence();
        const auto& vvals = v.dense_values();
        const auto& vpresent = v.dense_presence();
        rt::InsertBag<std::pair<Index, T>> kept;
        rt::do_all_blocked(
            u.size(),
            [&](rt::Range range) {
                for (std::size_t i = range.begin; i < range.end; ++i) {
                    metrics::bump(metrics::kWorkItems);
                    if (upresent[i] == 0 || vpresent[i] == 0) {
                        continue;
                    }
                    const T value = fn(uvals[i], vvals[i]);
                    metrics::bump(metrics::kLabelReads, 2);
                    if (pred(static_cast<Index>(i), value)) {
                        kept.push({static_cast<Index>(i), value});
                        metrics::bump(metrics::kLabelWrites);
                    }
                }
            },
            backend_schedule());
        auto& oidx = result.sparse_indices();
        auto& ovals = result.sparse_values();
        oidx.reserve(kept.size());
        ovals.reserve(kept.size());
        kept.for_each([&](const std::pair<Index, T>& entry) {
            oidx.push_back(entry.first);
            ovals.push_back(entry.second);
        });
        result.set_format(VectorFormat::kSparse);
        result.set_sorted(false);
    } else {
        // Iterate the sparse side, probe the other — the eager
        // ewise_mult walk with the select predicate applied in-line.
        const Vector<T>* iter = &u;
        const Vector<T>* probe = &v;
        bool iter_is_u = true;
        if (u.format() == VectorFormat::kDense) {
            iter = &v;
            probe = &u;
            iter_is_u = false;
        }
        Vector<T> sorted_probe;
        const Vector<T>* probe_view = probe;
        if (probe->format() == VectorFormat::kSparse &&
            !probe->sorted()) {
            sorted_probe = *probe;
            sorted_probe.sort_entries();
            probe_view = &sorted_probe;
        }
        auto& oidx = result.sparse_indices();
        auto& ovals = result.sparse_values();
        iter->for_entries([&](Index i, T value) {
            metrics::bump(metrics::kWorkItems);
            metrics::bump(metrics::kLabelReads);
            std::optional<T> other;
            if (probe_view->format() == VectorFormat::kDense) {
                if (probe_view->dense_presence()[i] != 0) {
                    other = probe_view->dense_values()[i];
                }
            } else {
                const auto& pidx = probe_view->sparse_indices();
                const auto it =
                    std::lower_bound(pidx.begin(), pidx.end(), i);
                if (it != pidx.end() && *it == i) {
                    other = probe_view->sparse_values()
                        [static_cast<std::size_t>(it - pidx.begin())];
                }
            }
            if (!other.has_value()) {
                return;
            }
            const T product = iter_is_u ? fn(value, *other)
                                        : fn(*other, value);
            if (pred(i, product)) {
                oidx.push_back(i);
                ovals.push_back(product);
                metrics::bump(metrics::kLabelWrites);
            }
        });
        result.set_format(VectorFormat::kSparse);
        result.set_sorted(false);
    }

    if (backend_sorts_outputs()) {
        result.sort_entries();
    }
    result.charge_materialized();
    w = std::move(result);
}

} // namespace gas::grb
