// B1 — the scenario & batch-execution layer, measured. Five claims:
//
//   1. cache — a Table 1-style budget sweep re-solves identical subsystem
//      CTMDPs (the round-0 models coincide across budgets once caps clamp
//      to model_cap, and sweep scenarios overlap); the batch-wide
//      SolveCache turns those into hits, reported as a hit rate,
//   2. scaling — the same batch gets faster with more workers on one
//      shared pool (threads = 1/2/4 wall-clock and speedup),
//   3. pipelining — there is no stage barrier: the "overlap" column
//      counts evaluation jobs that started while another job's sizing
//      run was still in flight (0 serially, > 0 once workers pipeline),
//   4. latency — the "first eval" column is the wall-clock until the
//      first evaluation job *completed*: a finished sizing job's
//      evaluations are claimed ahead of still-queued sizing work
//      (exec::Priority::kEvaluation > kSizing),
//   5. determinism — every thread count produces bit-identical batch
//      reports (the exec-layer contract lifted to whole batches), shown
//      in the table rather than assumed.
//
// Everything runs through the socbuf::Session facade (one object owning
// the executor, the batch-wide solve cache and the registry) — the same
// entry point socbuf_cli and the experiment drivers use.
// `--json <file>` switches to the scheduling measurement: FIFO vs
// longest-first submission on the Table 1 budget sweep, written as one
// JSON document (the perf-trajectory format under BENCH_*.json) — the
// google-benchmark loop is skipped in that mode.
#include "exec/executor.hpp"
#include "exec/thread_pool.hpp"
#include "scenario/batch_runner.hpp"
#include "scenario/scenario.hpp"
#include "session/session.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

namespace {

using socbuf::Session;
using socbuf::SessionOptions;
using socbuf::scenario::BatchOptions;
using socbuf::scenario::BatchReport;
using socbuf::scenario::BatchRunner;
using socbuf::scenario::ScenarioSpec;

/// The np-baseline budget sweep (Table 1's rows) at a bench-friendly
/// horizon: 3 sizing jobs + 3 x reps evaluation jobs per run.
ScenarioSpec sweep_spec() {
    ScenarioSpec spec;
    spec.name = "np-budget-sweep";
    spec.budgets = {160, 320, 640};
    spec.replications = 5;
    spec.sizing_iterations = 6;
    spec.sim.horizon = 2000.0;
    spec.sim.warmup = 200.0;
    spec.sim.seed = 2005;
    spec.validate();
    return spec;
}

double seconds_of(const std::function<void()>& body) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

bool identical_runs(const BatchReport& a, const BatchReport& b) {
    if (a.runs.size() != b.runs.size()) return false;
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
        if (a.runs[i].pre_loss != b.runs[i].pre_loss) return false;
        if (a.runs[i].post_loss != b.runs[i].post_loss) return false;
        if (a.runs[i].pre_total != b.runs[i].pre_total) return false;
        if (a.runs[i].post_total != b.runs[i].post_total) return false;
        if (a.runs[i].resized_alloc != b.runs[i].resized_alloc) return false;
    }
    return true;
}

void print_batch_scaling() {
    std::printf("\n=== B1: batch scenario execution (hardware threads: %zu) "
                "===\n",
                socbuf::exec::resolve_thread_count(0));
    const ScenarioSpec spec = sweep_spec();

    // Cache effect at fixed threads: the same sweep with and without the
    // session's batch-wide solve cache.
    double cached_s = 0.0;
    BatchReport cached_report;
    {
        Session session({1});
        cached_s = seconds_of([&] { cached_report = session.run(spec); });
    }
    double uncached_s = 0.0;
    {
        SessionOptions options;
        options.threads = 1;
        options.use_solve_cache = false;
        Session session(options);
        uncached_s = seconds_of([&] { (void)session.run(spec); });
    }
    std::printf(
        "budget sweep %ld/%ld/%ld: solve cache %zu hits / %zu misses "
        "(%.0f%% hit rate); serial wall-clock %.3fs cached vs %.3fs "
        "uncached\n",
        spec.budgets[0], spec.budgets[1], spec.budgets[2],
        cached_report.cache.hits, cached_report.cache.misses,
        100.0 * cached_report.cache.hit_rate(), cached_s, uncached_s);

    socbuf::util::Table table({"threads", "batch [s]", "speedup",
                               "cache hit rate", "overlap", "first eval [s]",
                               "identical"});
    double base_s = 0.0;
    for (const std::size_t threads : {1UL, 2UL, 4UL}) {
        Session session({threads});
        BatchReport report;
        const double s = seconds_of([&] { report = session.run(spec); });
        if (threads == 1) base_s = s;
        table.add_row(
            {std::to_string(threads), socbuf::util::format_fixed(s, 3),
             socbuf::util::format_fixed(base_s / s, 2) + "x",
             socbuf::util::format_fixed(100.0 * report.cache.hit_rate(), 0) +
                 "%",
             std::to_string(report.eval_overlap),
             socbuf::util::format_fixed(report.first_eval_latency_s, 3),
             identical_runs(report, cached_report) ? "yes" : "NO"});
    }
    std::printf("%s", table.to_string().c_str());
    std::printf(
        "overlap = evaluation jobs started while another sizing run was "
        "still in flight (pipelined task graph; 0 in serial execution)\n");
}

/// The --json measurement: longest-first submission on the Table 1
/// budget sweep. Longest-first moves only the schedule. BatchOptions is
/// the one place the knob lives, so this drives the BatchRunner directly,
/// one fresh executor and per-batch solve cache per measurement — what a
/// Session run does.
void write_json_report(const std::string& path) {
    namespace sj = socbuf::util;
    const ScenarioSpec spec = sweep_spec();

    auto orderings = sj::JsonValue::array();
    for (const std::size_t threads : {2UL, 4UL}) {
        const auto timed_batch = [&](bool longest_first, BatchReport& out) {
            socbuf::exec::Executor executor(threads);
            BatchOptions options;
            options.longest_first = longest_first;
            BatchRunner runner(executor, options);
            return seconds_of([&] { out = runner.run(spec); });
        };
        BatchReport fifo;
        const double fifo_s = timed_batch(false, fifo);
        BatchReport longest;
        const double longest_s = timed_batch(true, longest);

        auto row = sj::JsonValue::object();
        row.set("threads", threads);
        row.set("fifo_s", fifo_s);
        row.set("longest_first_s", longest_s);
        row.set("identical_results", identical_runs(longest, fifo));
        orderings.push_back(std::move(row));
        std::printf("threads %zu: fifo %.3fs vs longest-first %.3fs, "
                    "results %s\n",
                    threads, fifo_s, longest_s,
                    identical_runs(longest, fifo) ? "identical" : "DIFFER");
    }

    auto root = sj::JsonValue::object();
    root.set("bench", std::string("batch_scenarios"));
    root.set("hardware_threads", socbuf::exec::resolve_thread_count(0));
    auto budgets = sj::JsonValue::array();
    for (const long b : spec.budgets) budgets.push_back(b);
    root.set("budgets", std::move(budgets));
    root.set("fifo_vs_longest_first", std::move(orderings));
    std::ofstream out(path);
    out << root.dump(2) << "\n";
    std::printf("wrote %s\n", path.c_str());
}

void BM_BatchBudgetSweep(benchmark::State& state) {
    ScenarioSpec spec = sweep_spec();
    spec.replications = 3;
    spec.sim.horizon = 1000.0;
    spec.sim.warmup = 100.0;
    const auto threads = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        Session session({threads});
        auto report = session.run(spec);
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK(BM_BatchBudgetSweep)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

void BM_SolveCacheOnOff(benchmark::State& state) {
    ScenarioSpec spec = sweep_spec();
    spec.replications = 1;
    spec.sim.horizon = 1000.0;
    spec.sim.warmup = 100.0;
    const bool use_cache = state.range(0) != 0;
    for (auto _ : state) {
        SessionOptions options;
        options.threads = 1;
        options.use_solve_cache = use_cache;
        Session session(options);
        auto report = session.run(spec);
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK(BM_SolveCacheOnOff)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    std::string json_path;
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--json") json_path = argv[i + 1];
    if (!json_path.empty()) {
        // JSON mode is the CI/perf-trajectory entry point: one
        // structured measurement, no google-benchmark loop.
        write_json_report(json_path);
        return 0;
    }
    print_batch_scaling();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
