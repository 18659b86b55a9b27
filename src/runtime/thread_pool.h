#pragma once

/**
 * @file
 * A persistent pool of worker threads.
 *
 * This is the foundation of the Galois-style runtime: the pool is created
 * once, and every parallel construct (do_all, on_each, for_each, the OBIM
 * executor) dispatches work to the same threads. The calling thread
 * participates as thread 0, so a pool of size one runs entirely inline.
 *
 * Fork-join protocol (spin-then-park, DESIGN.md §17). Every construct
 * is one run(), so the cost of starting and ending a region is paid per
 * GraphBLAS op — the paper's "lightweight loops". To keep it low, a
 * region whose threads are awake takes no lock and wakes nobody:
 *
 *  - the caller stores the task and the worker count, then publishes a
 *    new epoch (release); idle workers busy-wait on the epoch (acquire)
 *    for up to kSpinWindowNs, yielding the core now and then, and only
 *    then park on it (atomic wait);
 *  - each worker ends with a release decrement of the remaining-worker
 *    count; the caller busy-waits on it (acquire) over the same window
 *    and only then parks on it;
 *  - a thread announces that it parks (a parked-worker count, or the
 *    caller-parked flag) before its last look at the value it waits
 *    on, and the other side notifies only when it sees the
 *    announcement;
 *  - a pool larger than the hardware thread count skips the busy-wait,
 *    so spinning threads never take the core a working one needs.
 */

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "support/thread_annotations.h"

namespace gas::rt {

/**
 * Singleton worker-thread pool.
 *
 * run() executes a function once per thread and blocks until every
 * thread has finished — the building block for all higher-level loops.
 * Nested run() calls from inside a parallel region execute inline on the
 * calling thread only, which keeps composed parallel constructs correct
 * (if not faster).
 */
class ThreadPool
{
  public:
    /// Function executed by each thread: fn(thread_id, num_threads).
    using Task = std::function<void(unsigned, unsigned)>;

    /// How long an idle worker busy-waits for the next region, and the
    /// caller for the region's end, before parking. Long enough to span
    /// the serial code between the ops of one algorithm round, short
    /// enough that an idle pool stops burning cores almost at once.
    static constexpr uint64_t kSpinWindowNs = 100'000;

    /// The process-wide pool.
    static ThreadPool& get();

    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /**
     * Resize the pool. Must be called from outside any parallel region.
     * @param total desired number of threads including the caller
     *              (clamped to at least 1).
     */
    void set_num_threads(unsigned total);

    /// Number of threads (including the calling thread).
    unsigned num_threads() const { return num_threads_; }

    /**
     * Execute @p task on every thread and wait for completion.
     *
     * Exception safety: an exception escaping @p task on any thread is
     * captured (first one wins), the region still runs to completion on
     * the other threads, and the exception is rethrown on the calling
     * thread after the region ends. Higher-level executors (for_each,
     * OBIM) additionally set their own abort flag so sibling workers
     * drain quickly instead of spinning on a termination counter that
     * will never balance.
     */
    void run(const Task& task) GAS_EXCLUDES(lock_);

    /// Thread id of the calling thread within the active parallel region
    /// (0 when called outside one).
    static unsigned this_thread_id();

  private:
    ThreadPool();

    void worker_loop(unsigned tid, uint32_t seen_epoch) GAS_EXCLUDES(lock_);
    void stop_workers();
    void start_workers(unsigned worker_count);

    /// Hand @p task to every worker (nullptr tells them to exit).
    void publish(const Task* task);
    /// Worker side: wait until the epoch moves past @p seen; returns it.
    uint32_t await_epoch(uint32_t seen);
    /// Caller side: wait until every worker has finished the region.
    void await_workers();
    /// Keep @p error as the region's exception unless one is recorded.
    void record_error(std::exception_ptr error) GAS_EXCLUDES(lock_);

    std::vector<std::thread> workers_;
    /// Written only while the pool is quiescent (construction and
    /// set_num_threads after every worker joined), so reads from
    /// run()/num_threads() and the workers need no lock.
    unsigned num_threads_{1};
    /// Busy-wait budget of this pool size: kSpinWindowNs, or 0 when the
    /// pool has more threads than the hardware. Quiescent writes only,
    /// like num_threads_.
    uint64_t spin_ns_{0};

    // Region hand-off. The caller writes task_ and workers_remaining_
    // before its release store of epoch_; a worker reads task_ only
    // after its acquire load saw that epoch, and the caller rewrites
    // them only after its acquire load saw workers_remaining_ reach 0.
    // Each group sits on its own cache line: workers poll the first,
    // the caller the second.
    alignas(64) std::atomic<uint32_t> epoch_{0};
    const Task* task_{nullptr};
    /// Workers parked on epoch_; publish() notifies only when nonzero.
    std::atomic<unsigned> parked_workers_{0};

    alignas(64) std::atomic<unsigned> workers_remaining_{0};
    /// True while the caller is parked on workers_remaining_; the last
    /// worker out notifies only when set.
    std::atomic<bool> caller_parked_{false};
    /// Set by a worker that recorded an exception, so the caller takes
    /// lock_ to collect it only when there is one.
    std::atomic<bool> region_failed_{false};

    /// Guards the exception slot only; the hand-off itself is lock-free.
    gas::Mutex lock_;
    /// First exception thrown by any thread in the active region.
    std::exception_ptr region_error_ GAS_GUARDED_BY(lock_);
};

/// Set the number of threads used by all parallel constructs.
void set_num_threads(unsigned total);

/// Number of threads used by all parallel constructs.
unsigned num_threads();

/// Thread id of the caller inside a parallel region (0 outside).
unsigned thread_id();

} // namespace gas::rt
