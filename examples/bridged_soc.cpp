// The paper's Figure 1 architecture end to end: split it into the four
// linear subsystems of Figure 2, show the quadratic coupling of the
// monolithic model, solve it with the split fixed point, then size the
// buffers.
//
//   $ ./bridged_soc
#include "arch/presets.hpp"
#include "core/engine.hpp"
#include "nonlinear/coupled_model.hpp"
#include "split/splitter.hpp"

#include <cstdio>

int main() {
    using namespace socbuf;
    const auto system = arch::figure1_system();

    // --- the split (Figure 2) -------------------------------------------
    const auto split = split::split_architecture(system);
    split::verify_linearity(system, split);
    std::printf("Figure 1 architecture: %zu processors, %zu buses, %zu "
                "bridges\n",
                system.architecture.processor_count(),
                system.architecture.bus_count(),
                system.architecture.bridge_count());
    std::printf("split into %zu linear subsystems, inserting %zu bridge "
                "buffers (b1..b4 of Figure 2):\n",
                split.subsystems.size(), split.inserted_buffer_count);
    for (const auto& sub : split.subsystems) {
        std::printf("  bus %-2s (mu=%.1f): ", sub.bus_name.c_str(),
                    sub.service_rate);
        for (const auto& f : sub.flows)
            std::printf("%s%s ", split.sites[f.site].name.c_str(),
                        f.inserted ? "*" : "");
        std::printf("\n");
    }
    std::printf("  (* = buffer inserted by the split)\n\n");

    // --- the quadratic monolithic model ---------------------------------
    const nonlinear::CoupledBusModel monolithic(system, split);
    std::printf("monolithic model: %zu unknowns, %zu bilinear terms "
                "(the quadratic equations of Section 2)\n",
                monolithic.unknown_count(),
                monolithic.bilinear_term_count());
    const auto fp = monolithic.solve_fixed_point();
    std::printf("split-style fixed point: %s in %zu rounds, loss rate "
                "%.4f\n\n",
                fp.converged ? "converged" : "FAILED", fp.iterations,
                fp.solution.total_loss_rate);

    // --- buffer sizing ---------------------------------------------------
    core::SizingOptions options;
    options.total_budget = 45;  // 5 units per traffic-carrying site
    options.sim.horizon = 5000.0;
    options.sim.warmup = 500.0;
    options.sim.seed = 7;
    const auto report = core::BufferSizingEngine(options).run(system);
    std::printf("buffer sizing at budget %ld: loss %llu -> %llu\n",
                options.total_budget,
                static_cast<unsigned long long>(report.before.total_lost()),
                static_cast<unsigned long long>(report.after.total_lost()));
    for (std::size_t s = 0; s < split.sites.size(); ++s)
        if (report.initial[s] + report.best[s] > 0)
            std::printf("  %-8s %2ld -> %2ld units\n",
                        split.sites[s].name.c_str(), report.initial[s],
                        report.best[s]);
    return 0;
}
