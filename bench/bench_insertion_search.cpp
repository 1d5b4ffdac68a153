// B2 — the buffer-insertion placement search, measured. Four claims:
//
//   1. quality — the searched placement's best weighted loss never
//      exceeds the all-selected preset's at the same total budget (the
//      preset plan is always evaluated, so searched <= preset by
//      construction; the table shows by how much the search wins),
//   2. pruning — on the network-processor testbench (8 candidate bridge
//      sites, a 256-plan space) the staged dominance-pruned search
//      evaluates a small fraction of the space, while the Figure 1
//      sample (4 candidates) sweeps all 16 plans exhaustively — both
//      plan counts are reported against the full space,
//   3. cache sharing — every plan evaluation is a full sizing run
//      through ONE batch-wide SolveCache, so plans that agree on a
//      subsystem's model re-use its solve (hit rate reported),
//   4. determinism — the searched placement and the whole report are
//      bit-identical at threads 1/2/4 (plan evaluations fan through the
//      shared executor at Priority::kSizing, folded in mask order).
//
// `--json <file>` writes the structured measurement for the
// perf-trajectory format under BENCH_*.json and skips the
// google-benchmark loop.
#include "exec/thread_pool.hpp"
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
using socbuf::scenario::BatchReport;
using socbuf::scenario::InsertionRunReport;
using socbuf::scenario::ScenarioSpec;

/// The two insertion presets at a bench-friendly horizon: the Figure 1
/// sample takes the exhaustive path, the network-processor testbench
/// the pruned one.
ScenarioSpec search_spec(const std::string& name) {
    const socbuf::scenario::ScenarioRegistry registry;
    ScenarioSpec spec = registry.get(name);
    spec.sim.horizon = 1000.0;
    spec.sim.warmup = 100.0;
    spec.replications = 2;
    spec.sizing_iterations = 3;
    return spec;
}

double seconds_of(const std::function<void()>& body) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

/// The run's searched-vs-preset gain: 1 - searched/preset (0 when the
/// preset is already optimal).
double search_gain(const InsertionRunReport& insertion) {
    if (!(insertion.preset_loss > 0.0)) return 0.0;
    return 1.0 - insertion.searched_loss / insertion.preset_loss;
}

std::size_t plan_space(const InsertionRunReport& insertion) {
    const std::size_t candidates =
        insertion.selected_sites.size() + insertion.deselected_sites.size();
    return std::size_t{1} << candidates;
}

bool identical_reports(const BatchReport& a, const BatchReport& b) {
    BatchReport normalized = b;
    normalized.workers = a.workers;
    return normalized.to_json() == a.to_json();
}

void print_search_table() {
    std::printf("\n=== B2: buffer-insertion placement search (searched vs "
                "all-selected preset, equal budget) ===\n");
    socbuf::util::Table table({"scenario", "mode", "plans", "space",
                               "pruned", "searched loss", "preset loss",
                               "gain", "cache hit", "wall [s]",
                               "identical @1/2/4"});
    for (const char* name : {"insertion-figure1", "insertion-np-search"}) {
        const ScenarioSpec spec = search_spec(name);
        Session reference_session({1});
        BatchReport reference;
        const double s =
            seconds_of([&] { reference = reference_session.run(spec); });
        bool identical = true;
        for (const std::size_t threads : {2UL, 4UL}) {
            Session session({threads});
            identical =
                identical && identical_reports(reference, session.run(spec));
        }
        const auto& run = reference.runs.front();
        table.add_row(
            {name, run.insertion.exhaustive ? "exhaustive" : "pruned",
             std::to_string(run.insertion.plans_evaluated),
             std::to_string(plan_space(run.insertion)),
             std::to_string(run.insertion.plans_pruned),
             socbuf::util::format_fixed(run.insertion.searched_loss, 4),
             socbuf::util::format_fixed(run.insertion.preset_loss, 4),
             socbuf::util::format_fixed(100.0 * search_gain(run.insertion),
                                        1) +
                 "%",
             socbuf::util::format_fixed(
                 100.0 * reference.cache.hit_rate(), 0) +
                 "%",
             socbuf::util::format_fixed(s, 3), identical ? "yes" : "NO"});
    }
    std::printf("%s", table.to_string().c_str());
    std::printf(
        "plans = unique sizing-engine evaluations the search spent; space "
        "= 2^candidates; pruned = children dropped by dominance\n");
}

void write_json_report(const std::string& path) {
    namespace sj = socbuf::util;
    auto scenarios = sj::JsonValue::array();
    for (const char* name : {"insertion-figure1", "insertion-np-search"}) {
        const ScenarioSpec spec = search_spec(name);
        Session session({1});
        BatchReport report;
        const double s = seconds_of([&] { report = session.run(spec); });
        bool identical = true;
        for (const std::size_t threads : {2UL, 4UL}) {
            Session wide({threads});
            identical = identical && identical_reports(report, wide.run(spec));
        }
        const auto& run = report.runs.front();
        auto row = sj::JsonValue::object();
        row.set("scenario", std::string(name));
        row.set("exhaustive", run.insertion.exhaustive);
        row.set("plans_evaluated", run.insertion.plans_evaluated);
        row.set("plans_pruned", run.insertion.plans_pruned);
        row.set("plan_space", plan_space(run.insertion));
        row.set("searched_loss", run.insertion.searched_loss);
        row.set("preset_loss", run.insertion.preset_loss);
        row.set("search_gain", search_gain(run.insertion));
        auto deselected = sj::JsonValue::array();
        for (const auto& site : run.insertion.deselected_sites)
            deselected.push_back(site);
        row.set("deselected_sites", std::move(deselected));
        row.set("cache_hit_rate", report.cache.hit_rate());
        row.set("wall_s", s);
        row.set("identical_across_threads", identical);
        scenarios.push_back(std::move(row));
        std::printf("%s: %zu/%zu plans (%zu pruned), searched %.4f vs "
                    "preset %.4f (gain %.1f%%), cache hit %.0f%%, %.3fs, "
                    "threads 1/2/4 %s\n",
                    name, run.insertion.plans_evaluated,
                    plan_space(run.insertion), run.insertion.plans_pruned,
                    run.insertion.searched_loss, run.insertion.preset_loss,
                    100.0 * search_gain(run.insertion),
                    100.0 * report.cache.hit_rate(), s,
                    identical ? "identical" : "DIFFER");
    }
    auto root = sj::JsonValue::object();
    root.set("bench", std::string("insertion_search"));
    root.set("hardware_threads", socbuf::exec::resolve_thread_count(0));
    root.set("scenarios", std::move(scenarios));
    std::ofstream out(path);
    out << root.dump(2) << "\n";
    std::printf("wrote %s\n", path.c_str());
}

void BM_InsertionSearchFigure1(benchmark::State& state) {
    const ScenarioSpec spec = search_spec("insertion-figure1");
    const auto threads = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        Session session({threads});
        auto report = session.run(spec);
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK(BM_InsertionSearchFigure1)->Arg(1)->Arg(4)->Unit(
    benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    std::string json_path;
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--json") json_path = argv[i + 1];
    if (!json_path.empty()) {
        write_json_report(json_path);
        return 0;
    }
    print_search_table();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
