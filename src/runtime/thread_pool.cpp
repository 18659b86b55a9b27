#include "runtime/thread_pool.h"

#include <utility>

#include "check/fuzz.h"
#include "check/shadow.h"
#include "runtime/backoff.h"
#include "support/check.h"
#include "support/timer.h"

namespace gas::rt {

namespace {

thread_local unsigned current_thread_id = 0;
thread_local bool inside_region = false;

/// Pauses between clock reads while busy-waiting (about half a
/// microsecond here): short enough to end close to the window, long
/// enough that the loop mostly polls the flag.
constexpr unsigned kPausesPerClockRead = 32;

/// Busy-wait until ready() holds or @p window_ns has passed. Returns
/// whether ready() held; a zero window only polls once.
template <typename Ready>
bool
spin_until(uint64_t window_ns, Ready&& ready)
{
    if (ready()) {
        return true;
    }
    if (window_ns == 0) {
        return false;
    }
    const uint64_t start = now_ns();
    for (unsigned pauses = 1;; ++pauses) {
        cpu_relax();
        if (ready()) {
            return true;
        }
        if (pauses % kPausesPerClockRead == 0) {
            if (now_ns() - start >= window_ns) {
                return false;
            }
            // Offer the core at every clock read. A waker's CPU is
            // where the kernel often puts the threads it wakes, so the
            // thread being waited for may be queued behind this one;
            // pure spinning would hold it off for the whole window.
            std::this_thread::yield();
        }
    }
}

} // namespace

ThreadPool&
ThreadPool::get()
{
    static ThreadPool pool;
    return pool;
}

ThreadPool::ThreadPool()
{
    const unsigned hw = std::thread::hardware_concurrency();
    num_threads_ = hw == 0 ? 1 : hw;
    start_workers(num_threads_ - 1);
}

ThreadPool::~ThreadPool()
{
    stop_workers();
}

void
ThreadPool::set_num_threads(unsigned total)
{
    GAS_CHECK(!inside_region,
              "set_num_threads called inside a parallel region");
    if (total == 0) {
        total = 1;
    }
    if (total == num_threads_) {
        return;
    }
    stop_workers();
    num_threads_ = total;
    start_workers(total - 1);
}

void
ThreadPool::start_workers(unsigned worker_count)
{
    // Spinning threads only pay off when each has a core: in an
    // oversubscribed pool a spinner would hold the core a working
    // thread is waiting for, so every wait parks at once.
    const unsigned hw = std::thread::hardware_concurrency();
    spin_ns_ = hw != 0 && num_threads_ > hw ? 0 : kSpinWindowNs;
    // Capture the epoch before any worker starts: a worker must treat
    // every later epoch as new work, but never re-run epochs from
    // before its creation.
    const uint32_t birth_epoch = epoch_.load(std::memory_order_relaxed);
    workers_.reserve(worker_count);
    for (unsigned i = 0; i < worker_count; ++i) {
        const unsigned tid = i + 1;
        workers_.emplace_back(
            [this, tid, birth_epoch] { worker_loop(tid, birth_epoch); });
    }
}

void
ThreadPool::stop_workers()
{
    if (workers_.empty()) {
        return;
    }
    publish(nullptr);
    for (auto& worker : workers_) {
        worker.join();
    }
    workers_.clear();
}

void
ThreadPool::publish(const Task* task)
{
    task_ = task;
    workers_remaining_.store(static_cast<unsigned>(workers_.size()),
                             std::memory_order_relaxed);
    // The release half hands task_ and the count to the workers. The
    // store is seq_cst so that it is also ordered before the load of
    // parked_workers_ below: a parking worker increments that count and
    // then re-reads the epoch (both seq_cst), so either it sees this
    // epoch and does not sleep, or this load sees it and wakes it. (The
    // atomic wait itself re-checks the value as it sleeps, so a notify
    // that lands before the sleep is not lost.)
    epoch_.store(epoch_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_seq_cst);
    if (parked_workers_.load(std::memory_order_seq_cst) != 0) {
        epoch_.notify_all();
    }
}

uint32_t
ThreadPool::await_epoch(uint32_t seen)
{
    uint32_t epoch = seen;
    if (spin_until(spin_ns_, [&] {
            epoch = epoch_.load(std::memory_order_acquire);
            return epoch != seen;
        })) {
        return epoch;
    }
    // The lost-wake-up window: publish() may run between the last poll
    // and the park below.
    check::fuzz::maybe_yield(check::fuzz::Site::kPoolPark);
    // Announce, then re-check (both seq_cst), mirroring publish()'s
    // store-then-read.
    parked_workers_.fetch_add(1, std::memory_order_seq_cst);
    epoch_.wait(seen, std::memory_order_seq_cst);
    parked_workers_.fetch_sub(1, std::memory_order_relaxed);
    return epoch_.load(std::memory_order_acquire);
}

void
ThreadPool::await_workers()
{
    if (spin_until(spin_ns_, [&] {
            return workers_remaining_.load(std::memory_order_acquire) == 0;
        })) {
        return;
    }
    // The lost-wake-up window: the last worker may finish between the
    // last poll and the park below.
    check::fuzz::maybe_yield(check::fuzz::Site::kPoolPark);
    // Announce, then re-check (both seq_cst), mirroring the last
    // worker's decrement-then-read in worker_loop.
    caller_parked_.store(true, std::memory_order_seq_cst);
    // Only the last worker notifies, so wait again whenever an earlier
    // decrement ends the wait for the value it changed.
    for (unsigned left = 0;
         (left = workers_remaining_.load(std::memory_order_seq_cst)) != 0;) {
        workers_remaining_.wait(left, std::memory_order_seq_cst);
    }
    caller_parked_.store(false, std::memory_order_relaxed);
}

void
ThreadPool::record_error(std::exception_ptr error)
{
    gas::LockGuard guard(lock_);
    if (!region_error_) {
        region_error_ = std::move(error);
    }
    region_failed_.store(true, std::memory_order_relaxed);
}

void
ThreadPool::worker_loop(unsigned tid, uint32_t seen_epoch)
{
    current_thread_id = tid;
    while (true) {
        seen_epoch = await_epoch(seen_epoch);
        const Task* task = task_;
        if (task == nullptr) {
            return;
        }
        inside_region = true;
        try {
            (*task)(tid, num_threads_);
        } catch (...) {
            record_error(std::current_exception());
        }
        inside_region = false;
        // Release: the region's writes (and region_failed_) reach the
        // caller with its acquire load of the count. seq_cst so the read
        // of caller_parked_ cannot move before the decrement.
        if (workers_remaining_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
            caller_parked_.load(std::memory_order_seq_cst)) {
            workers_remaining_.notify_one();
        }
    }
}

void
ThreadPool::run(const Task& task)
{
    if (inside_region) {
        // Nested parallelism runs inline on the calling thread.
        task(0, 1);
        return;
    }
    // GAS_CHECK epoch fencing: entering a region is a barrier for every
    // participating thread, so accesses before it can never race with
    // accesses inside it. (No-op in unchecked builds.)
    check::region_begin();
    publish(&task);

    current_thread_id = 0;
    inside_region = true;
    std::exception_ptr caller_error;
    try {
        task(0, num_threads_);
    } catch (...) {
        caller_error = std::current_exception();
    }
    inside_region = false;

    await_workers();
    // A worker's exception wins over the caller's: it was recorded
    // first.
    if (caller_error) {
        record_error(std::move(caller_error));
    }
    std::exception_ptr region_error;
    if (region_failed_.load(std::memory_order_relaxed)) {
        gas::LockGuard guard(lock_);
        region_error = std::exchange(region_error_, nullptr);
        region_failed_.store(false, std::memory_order_relaxed);
    }
    // Leaving the region is the matching barrier: sequential code after
    // run() gets a fresh epoch and cannot be flagged against in-region
    // accesses.
    check::region_begin();
    if (region_error) {
        std::rethrow_exception(region_error);
    }
}

unsigned
ThreadPool::this_thread_id()
{
    return current_thread_id;
}

void
set_num_threads(unsigned total)
{
    ThreadPool::get().set_num_threads(total);
}

unsigned
num_threads()
{
    return ThreadPool::get().num_threads();
}

unsigned
thread_id()
{
    return ThreadPool::this_thread_id();
}

} // namespace gas::rt
