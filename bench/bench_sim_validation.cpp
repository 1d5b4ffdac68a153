// A2 — simulator validation: measured M/M/1/K blocking against the closed
// form across loads and capacities, plus raw event throughput of the DES
// on the network-processor testbench.
//
// `--json <file>` switches to the DES kernel measurement: packets/s and
// ns/packet of the network-processor simulation at horizons 1000 and 4000,
// written as one JSON document (the perf-trajectory format under
// BENCH_*.json) — the validation table and the google-benchmark loop are
// skipped in that mode.
#include "arch/presets.hpp"
#include "exec/thread_pool.hpp"
#include "queueing/mm1k.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

namespace {

socbuf::arch::TestSystem single_queue(double lambda, double mu) {
    socbuf::arch::TestSystem sys;
    sys.name = "mm1k";
    const auto bus = sys.architecture.add_bus("bus", mu);
    const auto src = sys.architecture.add_processor("src", bus);
    const auto dst = sys.architecture.add_processor("dst", bus);
    sys.flows.push_back({src, dst, lambda, 1.0, 0.0, 0.0});
    return sys;
}

void print_validation() {
    std::printf("\n=== A2: simulated vs analytic M/M/1/K blocking ===\n");
    socbuf::util::Table t(
        {"rho", "K", "analytic", "simulated", "abs err"});
    for (const double rho : {0.5, 0.8, 0.95, 1.2}) {
        for (const long k : {3L, 6L, 12L}) {
            const auto sys = single_queue(rho, 1.0);
            socbuf::sim::SimConfig cfg;
            cfg.horizon = 80000.0;
            cfg.warmup = 2000.0;
            cfg.seed = 7;
            const auto r = socbuf::sim::simulate(sys, {k, 1}, cfg);
            const double measured = static_cast<double>(r.lost[0]) /
                                    static_cast<double>(r.offered[0]);
            const double exact =
                socbuf::queueing::analyze_mm1k(rho, 1.0,
                                               static_cast<std::size_t>(k))
                    .blocking_probability;
            t.add_row({socbuf::util::format_fixed(rho, 2),
                       std::to_string(k),
                       socbuf::util::format_fixed(exact, 4),
                       socbuf::util::format_fixed(measured, 4),
                       socbuf::util::format_fixed(std::abs(measured - exact),
                                                  4)});
        }
    }
    std::printf("%s", t.to_string().c_str());
}

/// The network-processor throughput workload: every site at 13 slots,
/// warmup at a tenth of `horizon`.
socbuf::sim::SimConfig np_config(double horizon) {
    socbuf::sim::SimConfig cfg;
    cfg.horizon = horizon;
    cfg.warmup = horizon * 0.1;
    return cfg;
}

/// The --json measurement: serial simulations of the network-processor
/// testbench, repeated for at least a second per horizon; packets are the
/// offered (post-warmup) packets, as in BM_NetworkProcessorSim.
void write_json_report(const std::string& path) {
    namespace sj = socbuf::util;
    const auto sys = socbuf::arch::network_processor_system();
    const std::vector<long> caps(25, 13);
    auto rows = sj::JsonValue::array();
    for (const double horizon : {1000.0, 4000.0}) {
        const auto cfg = np_config(horizon);
        std::uint64_t packets = 0;
        std::size_t runs = 0;
        double seconds = 0.0;
        while (runs < 3 || seconds < 1.0) {
            const auto start = std::chrono::steady_clock::now();
            auto r = socbuf::sim::simulate(sys, caps, cfg);
            const auto stop = std::chrono::steady_clock::now();
            benchmark::DoNotOptimize(r);
            seconds += std::chrono::duration<double>(stop - start).count();
            packets += r.total_offered();
            ++runs;
        }
        const double n = static_cast<double>(packets);
        auto row = sj::JsonValue::object();
        row.set("horizon", horizon);
        row.set("runs", runs);
        row.set("packets", packets);
        row.set("wall_s", seconds);
        row.set("packets_per_s", n / seconds);
        row.set("ns_per_packet", 1e9 * seconds / n);
        std::printf("np sim horizon %.0f: %zu runs, %.0f packets/s, "
                    "%.1f ns/packet\n",
                    horizon, runs, n / seconds, 1e9 * seconds / n);
        rows.push_back(std::move(row));
    }
    auto root = sj::JsonValue::object();
    root.set("bench", std::string("sim_validation"));
    root.set("hardware_threads", socbuf::exec::resolve_thread_count(0));
    root.set("np_sim", std::move(rows));
    std::ofstream out(path);
    out << root.dump(2) << "\n";
    std::printf("wrote %s\n", path.c_str());
}

void BM_NetworkProcessorSim(benchmark::State& state) {
    const auto sys = socbuf::arch::network_processor_system();
    const std::vector<long> caps(25, 13);
    const auto cfg = np_config(static_cast<double>(state.range(0)));
    std::uint64_t events = 0;
    for (auto _ : state) {
        auto r = socbuf::sim::simulate(sys, caps, cfg);
        events += r.total_offered();
        benchmark::DoNotOptimize(r);
    }
    state.counters["packets/s"] = benchmark::Counter(
        static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NetworkProcessorSim)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    std::string json_path;
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--json") json_path = argv[i + 1];
    if (!json_path.empty()) {
        write_json_report(json_path);
        return 0;
    }
    print_validation();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
