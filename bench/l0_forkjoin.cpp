/**
 * @file
 * L0 runtime bench: fork-join latency of an empty parallel region.
 *
 * Every GraphBLAS op is its own parallel region, so the cost of
 * starting and ending one is the floor under the paper's "lightweight
 * loops" limitation. This bench times an empty rt::on_each and an
 * empty rt::do_all(threads) region, caller-side, at 1, 2 and
 * GAS_THREADS (default: nproc) threads, in two cases:
 *
 *  - back_to_back: regions follow one another, so idle threads are
 *    still inside their spin window when the next one starts;
 *  - gap: a busy serial gap of twice ThreadPool::kSpinWindowNs precedes
 *    each region, so every worker has parked and the region pays the
 *    wake-up (the park path).
 *
 * Each of GAS_REPS repetitions times every region of a batch on its
 * own. A record carries the p50 (as median_ms) and p99 over all
 * repetitions, plus each repetition's p50 in `rep_p50_us`. Output:
 * results/BENCH_l0_forkjoin.json.
 */

#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.h"

#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "support/timer.h"

namespace {

constexpr unsigned kBackToBackRegions = 2000;
constexpr unsigned kGapRegions = 200;
constexpr unsigned kWarmupRegions = 50;

double
percentile(std::vector<double> values, double q)
{
    std::sort(values.begin(), values.end());
    const auto at = static_cast<std::size_t>(q * (values.size() - 1));
    return values[at];
}

void
busy_wait_ns(uint64_t ns)
{
    const uint64_t until = gas::now_ns() + ns;
    while (gas::now_ns() < until) {
    }
}

/// Run one empty region: an on_each, or a do_all of one index per
/// thread.
void
empty_region(bool on_each, unsigned threads)
{
    if (on_each) {
        gas::rt::on_each([](unsigned, unsigned) {});
    } else {
        gas::rt::do_all(threads, [](std::size_t) {});
    }
}

} // namespace

int
main()
{
    using namespace gas;
    const auto config = bench::configure("l0_forkjoin");
    const uint64_t gap_ns = 2 * rt::ThreadPool::kSpinWindowNs;

    std::vector<unsigned> thread_counts{1, 2, config.threads};
    std::sort(thread_counts.begin(), thread_counts.end());
    thread_counts.erase(
        std::unique(thread_counts.begin(), thread_counts.end()),
        thread_counts.end());

    core::Table table("L0: empty-region fork-join latency (us)");
    table.set_header({"construct", "case", "threads", "regions", "p50",
                      "p99"});
    std::vector<bench::JsonRecord> records;
    for (const unsigned threads : thread_counts) {
        rt::set_num_threads(threads);
        for (const bool on_each : {true, false}) {
            const std::string construct = on_each ? "on_each" : "do_all";
            for (const bool gap : {false, true}) {
                const unsigned regions =
                    gap ? kGapRegions : kBackToBackRegions;
                for (unsigned i = 0; i < kWarmupRegions; ++i) {
                    empty_region(on_each, threads);
                }
                std::vector<double> all_us;
                std::vector<double> rep_p50_us;
                for (unsigned rep = 0; rep < config.reps; ++rep) {
                    std::vector<double> us;
                    us.reserve(regions);
                    for (unsigned i = 0; i < regions; ++i) {
                        if (gap) {
                            busy_wait_ns(gap_ns);
                        }
                        const uint64_t start = now_ns();
                        empty_region(on_each, threads);
                        us.push_back(
                            static_cast<double>(now_ns() - start) * 1e-3);
                    }
                    rep_p50_us.push_back(percentile(us, 0.50));
                    all_us.insert(all_us.end(), us.begin(), us.end());
                }
                const double p50 = percentile(all_us, 0.50);
                const double p99 = percentile(all_us, 0.99);
                const std::string label = gap ? "gap" : "back_to_back";
                table.add_row({construct, label, std::to_string(threads),
                               std::to_string(all_us.size()),
                               fixed(p50, 2), fixed(p99, 2)});

                std::string samples = "[";
                for (std::size_t i = 0; i < rep_p50_us.size(); ++i) {
                    samples += (i == 0 ? "" : ", ") + fixed(rep_p50_us[i], 3);
                }
                samples += "]";
                bench::JsonRecord record;
                record.app = construct;
                record.graph = label;
                record.api = "runtime";
                record.threads = threads;
                record.median_ms = p50 * 1e-3;
                record.extra = {
                    {"p50_us", fixed(p50, 3)},
                    {"p99_us", fixed(p99, 3)},
                    {"regions", std::to_string(all_us.size())},
                    {"gap_us", gap ? fixed(gap_ns * 1e-3, 0) : "0"},
                    {"spin_window_us",
                     fixed(rt::ThreadPool::kSpinWindowNs * 1e-3, 0)},
                    {"rep_p50_us", samples},
                };
                records.push_back(std::move(record));
            }
        }
    }
    rt::set_num_threads(config.threads);

    table.print();
    bench::maybe_write_csv(table, config, "l0_forkjoin");
    bench::write_json_records(records, "results/BENCH_l0_forkjoin.json");
    return 0;
}
