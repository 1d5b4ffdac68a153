// E4 — Table 1: loss before/after CTMDP resizing under total buffer
// budgets 160, 320 and 640. The paper highlights processors 1, 4, 15 and
// 16; we print those rows in the paper's layout plus the full per-budget
// totals.
#include "core/experiments.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

#include <benchmark/benchmark.h>

#include <cstdio>

namespace {

void print_table1() {
    socbuf::core::Table1Params params;  // paper-scale defaults
    const auto r = socbuf::core::run_table1(params);

    std::printf("\n=== Table 1: loss under varying total buffer size "
                "(%zu replications) ===\n",
                params.replications);
    std::vector<std::string> headers{"PROCESSOR"};
    for (const auto& row : r.rows) {
        headers.push_back("Buf" + std::to_string(row.budget) + " pre");
        headers.push_back("Buf" + std::to_string(row.budget) + " post");
    }
    socbuf::util::Table t(headers);
    for (const std::size_t display : r.highlighted) {
        std::vector<std::string> cells{std::to_string(display)};
        for (const auto& row : r.rows) {
            cells.push_back(
                socbuf::util::format_fixed(row.pre[display - 1], 0));
            cells.push_back(
                socbuf::util::format_fixed(row.post[display - 1], 0));
        }
        t.add_row(std::move(cells));
    }
    {
        std::vector<std::string> cells{"TOTAL(all)"};
        for (const auto& row : r.rows) {
            cells.push_back(socbuf::util::format_fixed(row.pre_total, 0));
            cells.push_back(socbuf::util::format_fixed(row.post_total, 0));
        }
        t.add_row(std::move(cells));
    }
    std::printf("%s", t.to_string().c_str());
    std::printf("shape checks: post-loss decreases with budget, reaches "
                "~0 at 640 for the highlighted processors, and individual "
                "processors may worsen at 160.\n");
}

void BM_Table1SingleBudget(benchmark::State& state) {
    socbuf::core::Table1Params params;
    params.budgets = {state.range(0)};
    params.horizon = 1200.0;
    params.warmup = 120.0;
    params.replications = 2;
    params.sizing_iterations = 3;
    for (auto _ : state) {
        auto r = socbuf::core::run_table1(params);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_Table1SingleBudget)
    ->Arg(160)
    ->Arg(320)
    ->Arg(640)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
    print_table1();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
