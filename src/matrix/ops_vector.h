#pragma once

/**
 * @file
 * Vector-level GraphBLAS-style operations: assign, apply, element-wise
 * add/multiply, reduce, gather/scatter (GrB_extract/GrB_assign with an
 * index vector), select, and comparison.
 *
 * Every operation makes one full pass over its operand structures — the
 * paper's "lightweight loop" critique — and bumps kPasses accordingly
 * so Table IV/V can count passes per system.
 */

#include "matrix/ops_common.h"
#include "runtime/reducers.h"
#include "trace/trace.h"

namespace gas::grb {

/**
 * w<mask> = value for all positions allowed by the mask
 * (GrB_assign with GrB_ALL). Without a mask, w becomes fully dense.
 * With a mask, w is densified and masked positions are overwritten;
 * with desc.replace set, positions the mask does NOT admit lose their
 * entries (GrB_REPLACE), exactly as the fused assign kernels do.
 */
template <typename T, typename MT = uint8_t>
void
assign_scalar(Vector<T>& w, const Vector<MT>* mask, const Descriptor& desc,
              T value)
{
    trace::Span span(trace::Category::kGrb, "assign_scalar", w.size());
    metrics::bump(metrics::kPasses);
    if (mask == nullptr) {
        w.fill(value);
        metrics::bump(metrics::kLabelWrites, w.size());
        metrics::bump(metrics::kWorkItems, w.size());
        return;
    }
    w.densify();
    auto& vals = w.dense_values();
    auto& present = w.dense_presence();

    if (!desc.mask_complement && !desc.replace &&
        mask->format() == VectorFormat::kSparse) {
        // Fast path: iterate only the mask's explicit entries. Not
        // valid under replace semantics, which must also clear the
        // positions the mask does not name.
        const auto& idx = mask->sparse_indices();
        const auto& mvals = mask->sparse_values();
        std::atomic<Nnz> added{0};
        rt::do_all_blocked(
            idx.size(),
            [&](rt::Range range) {
                Nnz local_added = 0;
                for (std::size_t k = range.begin; k < range.end; ++k) {
                    if (!desc.structural_mask && mvals[k] == MT{0}) {
                        continue;
                    }
                    const Index i = idx[k];
                    if (present[i] == 0) {
                        present[i] = 1;
                        ++local_added;
                    }
                    vals[i] = value;
                    metrics::bump(metrics::kLabelWrites);
                    metrics::bump(metrics::kWorkItems);
                }
                added.fetch_add(local_added, std::memory_order_relaxed);
            },
            backend_schedule());
        w.set_dense_nvals(w.nvals() + added.load());
        return;
    }

    const MaskView<MT> view(mask, desc);
    std::atomic<Nnz> added{0};
    std::atomic<Nnz> removed{0};
    rt::do_all_blocked(
        w.size(),
        [&](rt::Range range) {
            Nnz local_added = 0;
            Nnz local_removed = 0;
            for (std::size_t i = range.begin; i < range.end; ++i) {
                metrics::bump(metrics::kWorkItems);
                if (!view.test(static_cast<Index>(i))) {
                    if (desc.replace && present[i] != 0) {
                        // GrB_REPLACE: entries outside the mask are
                        // cleared, not carried over.
                        present[i] = 0;
                        ++local_removed;
                        metrics::bump(metrics::kLabelWrites);
                    }
                    continue;
                }
                if (present[i] == 0) {
                    present[i] = 1;
                    ++local_added;
                }
                vals[i] = value;
                metrics::bump(metrics::kLabelWrites);
            }
            added.fetch_add(local_added, std::memory_order_relaxed);
            removed.fetch_add(local_removed, std::memory_order_relaxed);
        },
        backend_schedule());
    w.set_dense_nvals(w.nvals() + added.load() - removed.load());
}

/// w = f(u) entry-wise, preserving u's structure. f: T -> T.
template <typename T, typename Fn>
void
apply(Vector<T>& w, const Vector<T>& u, Fn&& fn)
{
    trace::Span span(trace::Category::kGrb, "apply", u.nvals());
    metrics::bump(metrics::kPasses);
    w = u;
    if (w.format() == VectorFormat::kDense) {
        auto& vals = w.dense_values();
        const auto& present = w.dense_presence();
        rt::do_all_blocked(
            w.size(),
            [&](rt::Range range) {
                for (std::size_t i = range.begin; i < range.end; ++i) {
                    if (present[i] != 0) {
                        vals[i] = fn(vals[i]);
                        metrics::bump(metrics::kLabelReads);
                        metrics::bump(metrics::kLabelWrites);
                        metrics::bump(metrics::kWorkItems);
                    }
                }
            },
            backend_schedule());
        return;
    }
    auto& vals = w.sparse_values();
    rt::do_all_blocked(
        vals.size(),
        [&](rt::Range range) {
            for (std::size_t k = range.begin; k < range.end; ++k) {
                vals[k] = fn(vals[k]);
                metrics::bump(metrics::kLabelReads);
                metrics::bump(metrics::kLabelWrites);
                metrics::bump(metrics::kWorkItems);
            }
        },
        backend_schedule());
}

/**
 * w = u (+) v on the union of supports (GrB_eWiseAdd). Where only one
 * operand is explicit its value passes through unchanged.
 * The result is dense if either operand is dense.
 */
template <typename T, typename Fn>
void
ewise_add(Vector<T>& w, const Vector<T>& u, const Vector<T>& v, Fn&& fn)
{
    GAS_CHECK(u.size() == v.size(), "ewise_add dimension mismatch");
    trace::Span span(trace::Category::kGrb, "ewise_add", u.nvals());
    metrics::bump(metrics::kPasses);

    if (u.format() == VectorFormat::kSparse &&
        v.format() == VectorFormat::kSparse) {
        Vector<T> us = u;
        Vector<T> vs = v;
        us.sort_entries();
        vs.sort_entries();
        Vector<T> result(u.size());
        auto& idx = result.sparse_indices();
        auto& vals = result.sparse_values();
        const auto& ui = us.sparse_indices();
        const auto& uv = us.sparse_values();
        const auto& vi = vs.sparse_indices();
        const auto& vv = vs.sparse_values();
        std::size_t a = 0;
        std::size_t b = 0;
        while (a < ui.size() || b < vi.size()) {
            metrics::bump(metrics::kWorkItems);
            if (b >= vi.size() || (a < ui.size() && ui[a] < vi[b])) {
                idx.push_back(ui[a]);
                vals.push_back(uv[a]);
                ++a;
            } else if (a >= ui.size() || vi[b] < ui[a]) {
                idx.push_back(vi[b]);
                vals.push_back(vv[b]);
                ++b;
            } else {
                idx.push_back(ui[a]);
                vals.push_back(fn(uv[a], vv[b]));
                ++a;
                ++b;
            }
            metrics::bump(metrics::kLabelWrites);
        }
        result.set_format(VectorFormat::kSparse);
        result.set_sorted(true);
        result.charge_materialized();
        w = std::move(result);
        return;
    }

    // At least one dense operand: the result is dense. w takes over the
    // dense operand's storage and the other operand is folded into it.
    // When w already is that operand the fold runs in place (GraphBLAS
    // lets an output alias an input; SuiteSparse's dense C += A kernels
    // do the same), so an accumulate like ewise_add(w, w, delta) costs
    // delta's entries, not a copy of w.
    const bool v_dense = v.format() == VectorFormat::kDense;
    const bool base_is_u = u.format() == VectorFormat::kDense &&
        (&w == &u || !(v_dense && &w == &v));
    const Vector<T>& base = base_is_u ? u : v;
    const Vector<T>* other = base_is_u ? &v : &u;
    // w aliasing the other operand is overwritten below, so fold from a
    // copy of it.
    Vector<T> other_copy;
    if (&w == other) {
        other_copy = *other;
        other = &other_copy;
    }
    if (&w != &base) {
        w = Vector<T>(base);
    }
    auto& vals = w.dense_values();
    auto& present = w.dense_presence();
    // Folds one entry of the other operand into w; returns 1 when the
    // entry lands on a new position.
    auto fold = [&](Index i, T value) -> Nnz {
        metrics::bump(metrics::kWorkItems);
        metrics::bump(metrics::kLabelWrites);
        if (present[i] != 0) {
            // Preserve argument order: fn(u value, v value).
            vals[i] = base_is_u ? fn(vals[i], value) : fn(value, vals[i]);
            return 0;
        }
        present[i] = 1;
        vals[i] = value;
        return 1;
    };
    std::atomic<Nnz> added{0};
    if (other->format() == VectorFormat::kDense) {
        const auto& ovals = other->dense_values();
        const auto& opresent = other->dense_presence();
        rt::do_all_blocked(
            w.size(),
            [&](rt::Range range) {
                Nnz local_added = 0;
                for (std::size_t i = range.begin; i < range.end; ++i) {
                    if (opresent[i] != 0) {
                        local_added += fold(static_cast<Index>(i), ovals[i]);
                    }
                }
                added.fetch_add(local_added, std::memory_order_relaxed);
            },
            backend_schedule());
    } else {
        const auto& oidx = other->sparse_indices();
        const auto& ovals = other->sparse_values();
        rt::do_all_blocked(
            oidx.size(),
            [&](rt::Range range) {
                Nnz local_added = 0;
                for (std::size_t k = range.begin; k < range.end; ++k) {
                    local_added += fold(oidx[k], ovals[k]);
                }
                added.fetch_add(local_added, std::memory_order_relaxed);
            },
            backend_schedule());
    }
    w.set_dense_nvals(w.nvals() + added.load());
}

/**
 * w = u (*) v on the intersection of supports (GrB_eWiseMult).
 */
template <typename T, typename Fn>
void
ewise_mult(Vector<T>& w, const Vector<T>& u, const Vector<T>& v, Fn&& fn)
{
    GAS_CHECK(u.size() == v.size(), "ewise_mult dimension mismatch");
    trace::Span span(trace::Category::kGrb, "ewise_mult", u.nvals());
    metrics::bump(metrics::kPasses);

    if (u.format() == VectorFormat::kDense &&
        v.format() == VectorFormat::kDense) {
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
                    if (upresent[i] != 0 && vpresent[i] != 0) {
                        vals[i] = fn(uvals[i], vvals[i]);
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
        // densify() above already charged the dense storage through the
        // capacity watermark; this is a reconciliation no-op, not a
        // second charge.
        result.charge_materialized();
        w = std::move(result);
        return;
    }

    // Iterate the sparse side (or the smaller side) and probe the other.
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
    if (probe->format() == VectorFormat::kSparse && !probe->sorted()) {
        sorted_probe = *probe;
        sorted_probe.sort_entries();
        probe_view = &sorted_probe;
    }

    Vector<T> result(u.size());
    auto& idx = result.sparse_indices();
    auto& vals = result.sparse_values();
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
                other = probe_view->sparse_values()[static_cast<std::size_t>(
                    it - pidx.begin())];
            }
        }
        if (other.has_value()) {
            idx.push_back(i);
            vals.push_back(iter_is_u ? fn(value, *other)
                                     : fn(*other, value));
            metrics::bump(metrics::kLabelWrites);
        }
    });
    result.set_format(VectorFormat::kSparse);
    result.set_sorted(iter->sorted());
    if (backend_sorts_outputs()) {
        result.sort_entries();
    }
    result.charge_materialized();
    w = std::move(result);
}

/// Monoid reduction of all explicit entries of @p u.
template <typename Monoid, typename T>
T
reduce(const Vector<T>& u)
{
    trace::Span span(trace::Category::kGrb, "reduce", u.nvals());
    metrics::bump(metrics::kPasses);
    auto merge = [](T a, T b) { return Monoid::add(a, b); };
    rt::Reducer<T, decltype(merge)> reducer(Monoid::identity(), merge);
    if (u.format() == VectorFormat::kDense) {
        const auto& vals = u.dense_values();
        const auto& present = u.dense_presence();
        rt::do_all_blocked(
            u.size(),
            [&](rt::Range range) {
                T local = Monoid::identity();
                for (std::size_t i = range.begin; i < range.end; ++i) {
                    if (present[i] != 0) {
                        local = Monoid::add(local, vals[i]);
                        metrics::bump(metrics::kLabelReads);
                        metrics::bump(metrics::kWorkItems);
                    }
                }
                reducer.update(local);
            },
            backend_schedule());
    } else {
        const auto& vals = u.sparse_values();
        rt::do_all_blocked(
            vals.size(),
            [&](rt::Range range) {
                T local = Monoid::identity();
                for (std::size_t k = range.begin; k < range.end; ++k) {
                    local = Monoid::add(local, vals[k]);
                    metrics::bump(metrics::kLabelReads);
                    metrics::bump(metrics::kWorkItems);
                }
                reducer.update(local);
            },
            backend_schedule());
    }
    return reducer.reduce();
}

/**
 * Gather: w(i) = u(idx(i)) for every i (GrB_extract with an index
 * vector). All three vectors must be fully dense.
 */
template <typename T, typename IT>
void
gather(Vector<T>& w, const Vector<T>& u, const Vector<IT>& idx)
{
    GAS_CHECK(u.format() == VectorFormat::kDense &&
                  idx.format() == VectorFormat::kDense,
              "gather requires dense operands");
    trace::Span span(trace::Category::kGrb, "gather", idx.size());
    metrics::bump(metrics::kPasses);
    Vector<T> result(idx.size());
    result.densify();
    auto& out = result.dense_values();
    auto& present = result.dense_presence();
    const auto& uvals = u.dense_values();
    const auto& ivals = idx.dense_values();
    rt::do_all_blocked(
        idx.size(),
        [&](rt::Range range) {
            for (std::size_t i = range.begin; i < range.end; ++i) {
                out[i] = uvals[static_cast<Index>(ivals[i])];
                present[i] = 1;
                metrics::bump(metrics::kLabelReads, 2);
                metrics::bump(metrics::kLabelWrites);
                metrics::bump(metrics::kWorkItems);
            }
        },
        backend_schedule());
    result.set_dense_nvals(idx.size());
    result.charge_materialized();
    w = std::move(result);
}

/**
 * Scatter-min: w(idx(i)) = min(w(idx(i)), u(i)) for every i
 * (GrB_assign with an index vector and the MIN accumulator).
 * w, u, idx must be dense and w fully populated.
 */
template <typename T, typename IT>
void
scatter_min(Vector<T>& w, const Vector<IT>& idx, const Vector<T>& u)
{
    GAS_CHECK(w.format() == VectorFormat::kDense &&
                  u.format() == VectorFormat::kDense &&
                  idx.format() == VectorFormat::kDense,
              "scatter_min requires dense operands");
    trace::Span span(trace::Category::kGrb, "scatter_min", idx.size());
    metrics::bump(metrics::kPasses);
    auto& wvals = w.dense_values();
    const auto& uvals = u.dense_values();
    const auto& upresent = u.dense_presence();
    const auto& ivals = idx.dense_values();
    const auto& ipresent = idx.dense_presence();
    rt::do_all_blocked(
        idx.size(),
        [&](rt::Range range) {
            for (std::size_t i = range.begin; i < range.end; ++i) {
                if (upresent[i] == 0 || ipresent[i] == 0) {
                    continue; // implicit source or index: no update
                }
                atomic_accum(wvals[static_cast<Index>(ivals[i])], uvals[i],
                             [](T a, T b) { return std::min(a, b); });
                metrics::bump(metrics::kLabelReads, 2);
                metrics::bump(metrics::kLabelWrites);
                metrics::bump(metrics::kWorkItems);
            }
        },
        backend_schedule());
}

/// Sparse selection: w = entries (i, x) of u where pred(i, x).
template <typename T, typename Pred>
void
select_entries(Vector<T>& w, const Vector<T>& u, Pred&& pred)
{
    trace::Span span(trace::Category::kGrb, "select", u.nvals());
    metrics::bump(metrics::kPasses);
    rt::InsertBag<std::pair<Index, T>> kept;
    if (u.format() == VectorFormat::kDense) {
        const auto& vals = u.dense_values();
        const auto& present = u.dense_presence();
        rt::do_all_blocked(
            u.size(),
            [&](rt::Range range) {
                for (std::size_t i = range.begin; i < range.end; ++i) {
                    metrics::bump(metrics::kWorkItems);
                    if (present[i] != 0 &&
                        pred(static_cast<Index>(i), vals[i])) {
                        kept.push({static_cast<Index>(i), vals[i]});
                        metrics::bump(metrics::kLabelReads);
                    }
                }
            },
            backend_schedule());
    } else {
        const auto& idx = u.sparse_indices();
        const auto& vals = u.sparse_values();
        rt::do_all_blocked(
            idx.size(),
            [&](rt::Range range) {
                for (std::size_t k = range.begin; k < range.end; ++k) {
                    metrics::bump(metrics::kWorkItems);
                    if (pred(idx[k], vals[k])) {
                        kept.push({idx[k], vals[k]});
                        metrics::bump(metrics::kLabelReads);
                    }
                }
            },
            backend_schedule());
    }
    Vector<T> result(u.size());
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
    if (backend_sorts_outputs()) {
        result.sort_entries();
    }
    result.charge_materialized();
    w = std::move(result);
}

/**
 * Structural and value equality of two vectors (same explicit entries
 * with equal values). Neither vector may hold an index twice.
 *
 * With equal nvals, "every entry of one vector is in the other with an
 * equal value" is equality, so one parallel pass walks one side and
 * probes the other: by presence when the probed side is dense, by
 * binary search when it is sparse. Nothing is materialized unless both
 * sides are unsorted sparse, in which case the probed side is sorted in
 * a copy.
 */
template <typename T>
bool
vectors_equal(const Vector<T>& u, const Vector<T>& v)
{
    trace::Span span(trace::Category::kGrb, "vectors_equal", u.nvals());
    metrics::bump(metrics::kPasses);
    if (u.size() != v.size() || u.nvals() != v.nvals()) {
        return false;
    }
    metrics::bump(metrics::kWorkItems, u.nvals() * 2);
    metrics::bump(metrics::kLabelReads, u.nvals() * 2);

    // Probe the dense side, else a sorted one, else a sorted copy.
    const Vector<T>* walk = &u;
    const Vector<T>* probe = &v;
    if (u.format() == VectorFormat::kDense ||
        (v.format() == VectorFormat::kSparse && !v.sorted())) {
        std::swap(walk, probe);
    }
    Vector<T> sorted_probe;
    if (!probe->sorted()) {
        sorted_probe = *probe;
        sorted_probe.sort_entries();
        probe = &sorted_probe;
    }
    const bool probe_dense = probe->format() == VectorFormat::kDense;
    const auto& pvals = probe_dense ? probe->dense_values()
                                    : probe->sparse_values();
    const auto& ppresent = probe->dense_presence();
    const auto& pidx = probe->sparse_indices();
    auto found = [&](Index i, T value) {
        if (probe_dense) {
            return ppresent[i] != 0 && pvals[i] == value;
        }
        const auto it = std::lower_bound(pidx.begin(), pidx.end(), i);
        return it != pidx.end() && *it == i &&
            pvals[static_cast<std::size_t>(it - pidx.begin())] == value;
    };

    // Blocks poll the flag every kPoll positions, so a difference stops
    // the pass within one poll interval per worker.
    constexpr std::size_t kPoll = 1024;
    std::atomic<bool> differ{false};
    const bool walk_dense = walk->format() == VectorFormat::kDense;
    const auto& wvals = walk_dense ? walk->dense_values()
                                   : walk->sparse_values();
    const auto& wpresent = walk->dense_presence();
    const auto& widx = walk->sparse_indices();
    rt::do_all_blocked(
        walk_dense ? walk->size() : widx.size(),
        [&](rt::Range range) {
            for (std::size_t at = range.begin; at < range.end;
                 at += kPoll) {
                if (differ.load(std::memory_order_relaxed)) {
                    return;
                }
                const std::size_t end = std::min(range.end, at + kPoll);
                for (std::size_t k = at; k < end; ++k) {
                    const bool same = walk_dense
                        ? wpresent[k] == 0 ||
                            found(static_cast<Index>(k), wvals[k])
                        : found(widx[k], wvals[k]);
                    if (!same) {
                        differ.store(true, std::memory_order_relaxed);
                        return;
                    }
                }
            }
        },
        backend_schedule());
    return !differ.load();
}

} // namespace gas::grb
