// socbench_driver — runs one preset workload through socbuf::Session and
// reports what run.py turns into the benchmark's metrics.
//
//   socbench_driver --spec-file F --preset NAME --seed N --seconds S
//                   [--threads T] [--trace 0|1]
//                   [--trace-out FILE] [--report-out FILE]
//
// F is the scenario document run.py generated for this seed; the driver
// refuses it unless every spec in it carries seed N. One closed-loop
// client: run one cold batch, then warm batches back to back until S
// seconds have passed (at least one). Between batches it sets up sessions
// (Session construction + load_file) in kSetupBursts bursts spread over
// the warm batches, kSetupReps in all; setup_s is their median. Every
// batch is checked: its report JSON must equal the cold batch's byte for
// byte (ignoring `workers`), and it must pass check_report below.
//
// With --trace 1 the warm batches alternate untraced and traced, and after
// them every sizing job is replayed once through the public function of
// each layer (split, model build, solver registry, simulator, insertion
// search, engine) on the job's own inputs, inside spans from trace.hpp.
// Only jobs with $.insertion.search go through the placement search; the
// others run the engine directly, so insertion.* read 0 on workloads
// that do not search.
// The driver then prints self time per span name, writes the spans as a
// Chrome trace, and reports the per-layer metrics.
//
// Human-readable lines go to stdout; the last stdout line is one JSON
// object with the raw results.
#include "trace.hpp"

#include "arch/sites.hpp"
#include "core/allocation.hpp"
#include "core/engine.hpp"
#include "core/subsystem_model.hpp"
#include "ctmdp/solve_cache.hpp"
#include "ctmdp/solver.hpp"
#include "exec/executor.hpp"
#include "insertion/search.hpp"
#include "scenario/batch_runner.hpp"
#include "scenario/scenario.hpp"
#include "session/session.hpp"
#include "sim/simulator.hpp"
#include "split/splitter.hpp"
#include "util/json.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifndef SOCBENCH_BUILD_TYPE
#define SOCBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SOCBENCH_COMPILER
#define SOCBENCH_COMPILER "unknown"
#endif

namespace {

using socbench::Clock;
using socbench::kNoSpan;
using socbench::ScopedSpan;
using socbench::seconds_between;
using socbench::Tracer;
using socbuf::util::JsonValue;
namespace scenario = socbuf::scenario;

struct Args {
    std::string spec_file;
    std::string preset;
    std::string trace_out;
    std::string report_out;
    unsigned long long seed = 0;
    bool has_seed = false;
    double seconds = 10.0;
    std::size_t threads = 4;
    bool trace = false;
};

/// Set-ups timed per run, in bursts of kSetupReps / kSetupBursts. One takes
/// about 0.1 ms, so they cost well under a second in all. The count does
/// not depend on how many batches the run fits in, and the bursts sample
/// the host across the run: its speed for such short work swings by a
/// factor of two within seconds.
constexpr std::size_t kSetupReps = 2000;
constexpr std::size_t kSetupBursts = 8;

unsigned long long parse_count(const std::string& flag,
                               const std::string& text) {
    std::size_t used = 0;
    const unsigned long long value = std::stoull(text, &used);
    if (used != text.size() || text.empty() || text[0] == '-')
        throw std::invalid_argument(flag + ": not a whole number: " + text);
    return value;
}

Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument(flag + ": missing value");
        const std::string value = argv[++i];
        if (flag == "--spec-file") {
            args.spec_file = value;
        } else if (flag == "--preset") {
            args.preset = value;
        } else if (flag == "--seed") {
            args.seed = parse_count(flag, value);
            args.has_seed = true;
        } else if (flag == "--seconds") {
            args.seconds = std::stod(value);
            if (!(args.seconds >= 0.0 && args.seconds <= 3600.0))
                throw std::invalid_argument("--seconds out of range");
        } else if (flag == "--threads") {
            args.threads = parse_count(flag, value);
            if (args.threads < 1 || args.threads > 256)
                throw std::invalid_argument("--threads out of range");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                throw std::invalid_argument("--trace must be 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--trace-out") {
            args.trace_out = value;
        } else if (flag == "--report-out") {
            args.report_out = value;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (args.spec_file.empty() || args.preset.empty() || !args.has_seed)
        throw std::invalid_argument("need --spec-file, --preset and --seed");
    return args;
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Reset this process's peak resident set (VmHWM) to its current RSS, so
/// the next peak_rss_mb() reads the peak of what ran in between. Where the
/// kernel refuses, VmHWM stays the peak since the process started.
void reset_peak_rss() {
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
}

/// Peak resident set of this process (VmHWM), in MiB; -1 if unreadable.
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) != 0) continue;
        std::istringstream fields(line.substr(6));
        double kib = -1.0;
        fields >> kib;
        return kib / 1024.0;
    }
    return -1.0;
}

/// The report JSON with the `workers` field blanked: the one field that
/// records the execution width rather than the workload.
std::string canonical(std::string json) {
    const std::string key = "\"workers\": ";
    const std::size_t at = json.find(key);
    if (at == std::string::npos) return json;
    const std::size_t from = at + key.size();
    const std::size_t to = json.find_first_of(",\n}", from);
    return json.replace(from, to - from, "0");
}

bool finite_non_negative(double v) { return std::isfinite(v) && v >= 0.0; }

/// The output check every batch must pass; returns the problems found.
std::vector<std::string> check_report(
    const scenario::BatchReport& report,
    const std::vector<scenario::ScenarioSpec>& specs) {
    std::vector<std::string> problems;
    std::size_t expected_runs = 0;
    for (const auto& spec : specs) expected_runs += spec.run_count();
    if (report.runs.size() != expected_runs)
        problems.push_back("run count " + std::to_string(report.runs.size()) +
                           " != expected " + std::to_string(expected_runs));
    for (const auto& run : report.runs) {
        const std::string where =
            run.scenario + "[" + run.variant + "]@" +
            std::to_string(run.budget) + ": ";
        if (socbuf::core::allocation_total(run.resized_alloc) != run.budget)
            problems.push_back(where + "resized_alloc does not sum to budget");
        if (socbuf::core::allocation_total(run.constant_alloc) != run.budget)
            problems.push_back(where +
                               "constant_alloc does not sum to budget");
        std::vector<double> losses = {run.pre_total, run.post_total,
                                      run.timeout_total};
        for (const auto* per : {&run.pre_loss, &run.post_loss,
                                &run.timeout_loss})
            losses.insert(losses.end(), per->begin(), per->end());
        if (run.insertion.searched) {
            losses.push_back(run.insertion.searched_loss);
            losses.push_back(run.insertion.preset_loss);
            if (!(run.insertion.searched_loss <= run.insertion.preset_loss))
                problems.push_back(where + "searched_loss > preset_loss");
        }
        for (const double v : losses)
            if (!finite_non_negative(v)) {
                problems.push_back(where + "loss not finite and >= 0");
                break;
            }
    }
    return problems;
}

double post_loss_sum(const scenario::BatchReport& report) {
    double sum = 0.0;
    for (const auto& run : report.runs) sum += run.post_total;
    return sum;
}

struct BatchSample {
    double wall_s = 0.0;
    double peak_rss_mb = 0.0;
    double first_result_s = 0.0;
    double report_json_s = 0.0;
    std::size_t report_bytes = 0;
    std::size_t eval_overlap = 0;
    bool ok = true;
    scenario::BatchReport report;
};

/// One closed-loop batch: run, serialize, check against `reference`
/// (empty for the cold batch, which becomes the reference).
BatchSample run_batch(socbuf::Session& session, const Args& args,
                      const std::vector<scenario::ScenarioSpec>& specs,
                      Tracer* tracer, std::size_t batch_id,
                      std::string& reference) {
    BatchSample out;
    ScopedSpan batch(tracer, "batch", kNoSpan, batch_id);
    reset_peak_rss();
    {
        ScopedSpan run(tracer, "session.run", batch.id(), batch_id);
        try {
            out.report = session.run(args.preset);
        } catch (const std::exception& e) {
            // A batch that throws counts as failed, not as a crashed run.
            out.wall_s = run.stop();
            out.peak_rss_mb = peak_rss_mb();
            out.ok = false;
            std::printf("CHECK FAILED (batch %zu): threw: %s\n", batch_id,
                        e.what());
            return out;
        }
        out.wall_s = run.stop();
    }
    out.peak_rss_mb = peak_rss_mb();
    std::string json;
    {
        ScopedSpan js(tracer, "scenario_io.report_json", batch.id(),
                      batch_id);
        json = out.report.to_json();
        out.report_json_s = js.stop();
    }
    ScopedSpan check(tracer, "check", batch.id(), batch_id);
    out.report_bytes = json.size();
    out.first_result_s = out.report.first_eval_latency_s;
    out.eval_overlap = out.report.eval_overlap;
    std::vector<std::string> problems = check_report(out.report, specs);
    json = canonical(std::move(json));
    if (reference.empty())
        reference = json;
    else if (json != reference)
        problems.push_back("report differs from the first batch's");
    if (!(out.first_result_s > 0.0))
        problems.push_back("no first evaluation latency");
    for (const auto& p : problems)
        std::printf("CHECK FAILED (batch %zu): %s\n", batch_id, p.c_str());
    out.ok = problems.empty();
    return out;
}

/// A per-layer metric as run.py forwards it: value plus unit.
void put(JsonValue& metrics, const std::string& name, double value,
         const char* unit) {
    JsonValue m = JsonValue::object();
    m.set("value", value);
    m.set("unit", unit);
    metrics.set(name, std::move(m));
}

/// Candidate sites of a placement search, resolved as the batch runner
/// does: the spec's named sites, or every traffic-carrying bridge site.
std::vector<socbuf::arch::SiteId> resolve_candidates(
    const scenario::ScenarioSpec& spec, const socbuf::arch::TestSystem& system,
    const std::vector<socbuf::arch::BufferSite>& sites) {
    std::vector<socbuf::arch::SiteId> out;
    if (!spec.insertion.search) return out;
    if (spec.insertion.candidates.empty()) {
        const auto split = socbuf::split::split_architecture(system);
        for (const auto& sub : split.subsystems)
            for (const auto& flow : sub.flows)
                if (sites[flow.site].kind == socbuf::arch::SiteKind::kBridge)
                    out.push_back(flow.site);
    } else {
        for (const auto& name : spec.insertion.candidates)
            for (std::size_t s = 0; s < sites.size(); ++s)
                if (sites[s].name == name) out.push_back(s);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

/// The sizing engine's solver dispatch (core/engine.cpp make_dispatch),
/// so replayed solves take the same rung with the same stopping rule.
socbuf::ctmdp::DispatchOptions engine_dispatch(
    const socbuf::core::SizingOptions& options,
    socbuf::exec::Executor& executor) {
    socbuf::ctmdp::DispatchOptions dispatch;
    dispatch.choice = options.solver;
    dispatch.lp_pair_limit = options.lp_pair_limit;
    dispatch.pi_state_limit = options.pi_state_limit;
    dispatch.solver.vi.tolerance = 1e-7;
    dispatch.solver.vi.max_iterations = 50000;
    dispatch.solver.vi.sweep = options.gauss_seidel
                                   ? socbuf::ctmdp::ViSweep::kGaussSeidel
                                   : socbuf::ctmdp::ViSweep::kJacobi;
    dispatch.solver.vi.executor = &executor;
    return dispatch;
}

/// Per-layer samples gathered by the replay.
struct LayerSamples {
    std::vector<double> split_s, model_build_s, sim_s, sim_ns_per_packet;
    std::vector<double> lp_s, pi_s, vi_s, vi_ns_per_transition;
    std::vector<double> vi_sweeps, vi_bytes_per_sweep;
    std::vector<double> engine_s, plan_s, search_s, job_s;
    double sim_packets = 0.0;
    double subsystems = 0.0, bridge_buffers = 0.0;
    double model_states = 0.0, model_transitions = 0.0;
    double engine_rounds = 0.0;
    std::vector<std::string> problems;
};

/// Bytes one Jacobi Bellman sweep streams, computed from the sizes of the
/// uniformized CSR arrays (ctmdp/value_iteration.cpp): per pair a step
/// cost, a stay probability and a row offset (3 x 8 B); per off-diagonal
/// transition a target index and a probability (2 x 8 B); per state the
/// old value read and the new value written (2 x 8 B). Gathers of h at
/// the targets are counted once each, with no credit for cache reuse.
double vi_bytes_per_sweep(const socbuf::ctmdp::CtmdpModel& model) {
    return 24.0 * static_cast<double>(model.pair_count()) +
           16.0 * static_cast<double>(model.transition_count()) +
           16.0 * static_cast<double>(model.state_count());
}

/// Replay every sizing job of `report` once through each layer's public
/// functions, inside spans of batch `batch_id`.
LayerSamples replay_layers(const std::vector<scenario::ScenarioSpec>& specs,
                           const scenario::BatchReport& report,
                           socbuf::exec::Executor& executor, Tracer& tracer,
                           std::size_t batch_id) {
    namespace core = socbuf::core;
    namespace ctmdp = socbuf::ctmdp;
    LayerSamples out;
    // One fresh unlimited cache for the whole replay, as the batch has.
    ctmdp::SolveCache cache;
    ctmdp::SolverRegistry registry;
    ScopedSpan replay(&tracer, "replay", kNoSpan, batch_id);
    std::size_t run_index = 0;
    for (const auto& spec : specs) {
        for (std::size_t v = 0; v < spec.variants.size(); ++v) {
            for (const long budget : spec.budgets) {
                const auto& run = report.runs.at(run_index++);
                const std::string job_name =
                    run.scenario + "[" + run.variant + "]@" +
                    std::to_string(budget);
                ScopedSpan job(&tracer, "job", replay.id(), batch_id);
                const socbuf::arch::TestSystem system =
                    spec.build_system(v);
                const core::SizingOptions options =
                    spec.sizing_options(budget);

                socbuf::split::SplitResult split;
                {
                    ScopedSpan s(&tracer, "split", job.id(), batch_id);
                    split = socbuf::split::split_architecture(system);
                    out.split_s.push_back(s.stop());
                }
                out.subsystems += static_cast<double>(split.subsystems.size());
                out.bridge_buffers +=
                    static_cast<double>(split.inserted_buffer_count);
                const core::Allocation round0 =
                    core::uniform_allocation(split, budget);

                std::vector<core::SubsystemCtmdp> models;
                {
                    ScopedSpan s(&tracer, "core.model_build", job.id(),
                                 batch_id);
                    models = core::build_subsystem_models(split, round0,
                                                          options.model_cap);
                    out.model_build_s.push_back(s.stop());
                }
                // Each rung is timed, forced, on every round-0 model kAuto
                // admits it for: LP up to lp_pair_limit pairs, PI up to
                // pi_state_limit states, VI on the models beyond that. So
                // every workload times every rung on models of its own.
                const ctmdp::DispatchOptions dispatch =
                    engine_dispatch(options, executor);
                const auto time_rung = [&](const ctmdp::CtmdpModel& model,
                                           ctmdp::SolverChoice choice,
                                           const char* span) {
                    ctmdp::DispatchOptions forced = dispatch;
                    forced.choice = choice;
                    ScopedSpan s(&tracer, span, job.id(), batch_id);
                    const ctmdp::SubsystemSolution sol =
                        registry.solve(model, forced);
                    const double t = s.stop();
                    if (!std::isfinite(sol.gain))
                        out.problems.push_back(job_name + ": " + span +
                                               " gain not finite");
                    return std::make_pair(t, sol);
                };
                for (const auto& m : models) {
                    const auto& model = m.model();
                    const double transitions =
                        static_cast<double>(model.transition_count());
                    out.model_states +=
                        static_cast<double>(model.state_count());
                    out.model_transitions += transitions;
                    if (model.pair_count() <= dispatch.lp_pair_limit)
                        out.lp_s.push_back(
                            time_rung(model, ctmdp::SolverChoice::kLp,
                                      "ctmdp.lp").first);
                    if (model.state_count() <= dispatch.pi_state_limit) {
                        out.pi_s.push_back(
                            time_rung(model,
                                      ctmdp::SolverChoice::kPolicyIteration,
                                      "ctmdp.pi")
                                .first);
                        continue;
                    }
                    const auto [t, sol] = time_rung(
                        model, ctmdp::SolverChoice::kValueIteration,
                        "ctmdp.vi");
                    const double sweeps = static_cast<double>(sol.iterations);
                    out.vi_s.push_back(t);
                    out.vi_sweeps.push_back(sweeps);
                    out.vi_ns_per_transition.push_back(
                        1e9 * t / std::max(1.0, sweeps * transitions));
                    out.vi_bytes_per_sweep.push_back(vi_bytes_per_sweep(model));
                }

                {
                    ScopedSpan s(&tracer, "sim.simulate", job.id(), batch_id);
                    const socbuf::sim::SimResult sim =
                        socbuf::sim::simulate(system, round0, spec.sim);
                    const double t = s.stop();
                    const double packets =
                        static_cast<double>(sim.total_offered());
                    out.sim_s.push_back(t);
                    out.sim_packets += packets;
                    out.sim_ns_per_packet.push_back(1e9 * t /
                                                    std::max(1.0, packets));
                }

                // Only a job with $.insertion.search is replayed as a
                // placement search; the others run the engine once on the
                // preset placement, as the batch runner does.
                double job_s = 0.0;
                core::SizingOptions final_options = options;
                if (spec.insertion.search) {
                    socbuf::arch::SiteCostModel cost_model;
                    cost_model.processor_cost =
                        spec.insertion.processor_site_cost;
                    cost_model.bridge_cost = spec.insertion.bridge_site_cost;
                    const auto sites = socbuf::arch::enumerate_buffer_sites(
                        system.architecture, cost_model);
                    const auto candidates =
                        resolve_candidates(spec, system, sites);
                    std::vector<double> costs;
                    for (const auto s : candidates)
                        costs.push_back(sites[s].unit_cost);
                    ScopedSpan search(&tracer, "insertion.search", job.id(),
                                      batch_id);
                    std::mutex mutex;
                    const auto evaluate =
                        [&](const socbuf::split::Placement& placement) {
                            core::SizingOptions plan = options;
                            plan.placement = placement;
                            ScopedSpan p(&tracer, "insertion.plan",
                                         search.id(), batch_id);
                            ScopedSpan e(&tracer, "engine.run", p.id(),
                                         batch_id);
                            const core::SizingReport sized =
                                core::BufferSizingEngine(plan).run(
                                    system, executor, &cache);
                            const double engine_s = e.stop();
                            const double plan_s = p.stop();
                            std::lock_guard<std::mutex> lock(mutex);
                            out.engine_s.push_back(engine_s);
                            out.plan_s.push_back(plan_s);
                            return sized.best_weighted_loss;
                        };
                    socbuf::insertion::SearchOptions search_options;
                    search_options.exhaustive_limit =
                        spec.insertion.exhaustive_limit;
                    const auto found = socbuf::insertion::search_placements(
                        candidates, costs, evaluate, executor, search_options);
                    job_s = search.stop();
                    out.search_s.push_back(job_s);
                    const auto& reported = run.insertion;
                    if (found.plans_evaluated != reported.plans_evaluated ||
                        found.plans_pruned != reported.plans_pruned ||
                        found.best_loss != reported.searched_loss ||
                        found.preset_loss != reported.preset_loss)
                        out.problems.push_back(
                            job_name + ": replayed search differs from report");
                    final_options.placement = found.best;
                }
                std::size_t rounds = 0;
                {
                    ScopedSpan e(&tracer, "engine.run", job.id(), batch_id);
                    const core::SizingReport sized =
                        core::BufferSizingEngine(final_options)
                            .run(system, executor, &cache);
                    const double engine_s = e.stop();
                    out.engine_s.push_back(engine_s);
                    job_s += engine_s;
                    rounds = sized.history.size();
                }
                if (rounds != run.engine_rounds)
                    out.problems.push_back(job_name +
                                           ": replayed engine rounds differ");
                out.engine_rounds += static_cast<double>(rounds);
                out.job_s.push_back(job_s);
            }
        }
    }
    return out;
}

void print_self_times(const Tracer& tracer) {
    const auto self = tracer.self_seconds();
    const auto counts = tracer.counts();
    std::printf("%-26s %8s %12s\n", "span", "count", "self [s]");
    for (const auto& [name, seconds] : self)
        std::printf("%-26s %8zu %12.6f\n", name.c_str(), counts.at(name),
                    seconds);
}

int run(const Args& args) {
    const bool release = std::string(SOCBENCH_BUILD_TYPE) == "Release";
#ifndef NDEBUG
    const bool asserts = true;
#else
    const bool asserts = false;
#endif
    if (!release || asserts) {
        std::fprintf(stderr,
                     "socbench_driver: refusing to report timings from a "
                     "%s build%s; configure with -DCMAKE_BUILD_TYPE=Release\n",
                     SOCBENCH_BUILD_TYPE, asserts ? " with asserts on" : "");
        return 3;
    }
    std::unique_ptr<Tracer> tracer;
    if (args.trace) tracer = std::make_unique<Tracer>();
    Tracer* traced = tracer.get();

    socbuf::SessionOptions options;
    options.threads = args.threads;
    std::vector<double> setup_s, construct_s, load_s;
    // One set-up: Session construction plus load_file, until it can run.
    const auto set_up = [&]() {
        ScopedSpan setup(traced, "setup", kNoSpan, 0);
        std::unique_ptr<socbuf::Session> made;
        {
            ScopedSpan s(traced, "session.construct", setup.id(), 0);
            made = std::make_unique<socbuf::Session>(options);
            construct_s.push_back(s.stop());
        }
        {
            ScopedSpan s(traced, "scenario_io.load", setup.id(), 0);
            if (made->load_file(args.spec_file) == 0)
                throw std::runtime_error("no scenarios in " + args.spec_file);
            load_s.push_back(s.stop());
        }
        setup_s.push_back(setup.stop());
        return made;
    };
    // Burst b is due once the warm batches have run b / kSetupBursts of
    // --seconds; due bursts run between batches, the first right after the
    // cold batch and any left over after the last. So every burst finds
    // the process in the state batches leave it in, not fresh. Each
    // set-up's session is destroyed (its pool joined) outside the timing.
    std::size_t bursts = 0;
    const auto setup_bursts_due = [&](double elapsed_s) {
        for (; bursts < kSetupBursts &&
               bursts * args.seconds <= elapsed_s * kSetupBursts;
             ++bursts)
            for (std::size_t rep = 0; rep < kSetupReps / kSetupBursts; ++rep)
                set_up();
    };
    const std::unique_ptr<socbuf::Session> session = set_up();
    const std::vector<scenario::ScenarioSpec> specs =
        session->registry().expand(args.preset);
    for (const auto& spec : specs)
        if (spec.sim.seed != args.seed)
            throw std::runtime_error("spec '" + spec.name +
                                     "' does not carry seed " +
                                     std::to_string(args.seed));

    std::string reference;
    std::size_t batch_id = 1;
    const BatchSample cold =
        run_batch(*session, args, specs, traced, batch_id++, reference);
    if (!args.report_out.empty()) {
        std::ofstream out(args.report_out, std::ios::binary);
        out << reference;
        if (!out) throw std::runtime_error("cannot write " + args.report_out);
    }
    setup_bursts_due(0.0);

    // Warm batches; the traced run alternates untraced and traced ones.
    std::vector<double> wall_s, first_s, peak_mb, traced_s, traced_first_s,
        json_s, overlap;
    std::size_t attempted = 0, failed = 0;
    scenario::BatchReport last = cold.report;
    std::size_t report_bytes = cold.report_bytes;
    const auto start = Clock::now();
    do {
        const BatchSample b =
            run_batch(*session, args, specs, nullptr, batch_id++, reference);
        ++attempted;
        if (!b.ok) ++failed;
        wall_s.push_back(b.wall_s);
        first_s.push_back(b.first_result_s);
        peak_mb.push_back(b.peak_rss_mb);
        if (tracer) {
            const BatchSample t =
                run_batch(*session, args, specs, traced, batch_id++, reference);
            ++attempted;
            if (!t.ok) ++failed;
            traced_s.push_back(t.wall_s);
            traced_first_s.push_back(t.first_result_s);
            json_s.push_back(t.report_json_s);
            overlap.push_back(static_cast<double>(t.eval_overlap));
            last = t.report;
            report_bytes = t.report_bytes;
        }
        setup_bursts_due(seconds_between(start, Clock::now()));
    } while (seconds_between(start, Clock::now()) < args.seconds);
    setup_bursts_due(args.seconds);

    const double loss = post_loss_sum(cold.report);
    std::printf("workload %s: seed %llu, %zu workers (%u hardware threads), "
                "%s build, %s\n",
                args.preset.c_str(), args.seed, session->workers(),
                std::thread::hardware_concurrency(), SOCBENCH_BUILD_TYPE,
                SOCBENCH_COMPILER);
    std::printf("cold batch %.3f s; %zu warm batches, median %.3f s; "
                "failed %zu of %zu; loss after sizing %.4f\n",
                cold.wall_s, wall_s.size(), median(wall_s), failed, attempted,
                loss);

    JsonValue result = JsonValue::object();
    result.set("preset", args.preset);
    result.set("seed", static_cast<double>(args.seed));
    result.set("workers", session->workers());
    result.set("hardware_threads",
               static_cast<std::size_t>(std::thread::hardware_concurrency()));
    result.set("build_type", SOCBENCH_BUILD_TYPE);
    result.set("compiler", SOCBENCH_COMPILER);
    result.set("correct", cold.ok && failed == 0);
    result.set("attempted", attempted);
    result.set("failed", failed);
    result.set("cold_batch_s", cold.wall_s);
    result.set("warm_batches", wall_s.size());
    result.set("wall_s", median(wall_s));
    result.set("first_result_s", median(first_s));
    result.set("setup_s", median(setup_s));
    result.set("peak_rss_mb", median(peak_mb));
    result.set("loss_after_sizing", loss);

    if (tracer) {
        LayerSamples layers =
            replay_layers(specs, last, session->executor(), *tracer, batch_id);
        for (const auto& p : layers.problems)
            std::printf("CHECK FAILED (replay): %s\n", p.c_str());
        if (!layers.problems.empty()) result.set("correct", false);
        print_self_times(*tracer);
        if (!args.trace_out.empty()) {
            std::ofstream out(args.trace_out, std::ios::binary);
            out << tracer->chrome_trace_json() << "\n";
            if (!out)
                throw std::runtime_error("cannot write " + args.trace_out);
            std::printf("trace written to %s\n", args.trace_out.c_str());
        }
        const auto sum = [](const std::vector<double>& v) {
            return std::accumulate(v.begin(), v.end(), 0.0);
        };
        std::size_t lp = 0, pi = 0, vi = 0;
        for (const auto& run : last.runs) {
            lp += run.lp_solves;
            pi += run.pi_solves;
            vi += run.vi_solves;
        }
        std::size_t plans_evaluated = 0, plans_pruned = 0;
        for (const auto& run : last.runs) {
            plans_evaluated += run.insertion.plans_evaluated;
            plans_pruned += run.insertion.plans_pruned;
        }
        const double batch_s = median(traced_s);
        JsonValue m = JsonValue::object();
        put(m, "sim.call_s", median(layers.sim_s), "s");
        put(m, "sim.packets", layers.sim_packets, "count");
        put(m, "sim.ns_per_packet", median(layers.sim_ns_per_packet), "ns");
        put(m, "ctmdp.lp_solve_s", median(layers.lp_s), "s");
        put(m, "ctmdp.pi_solve_s", median(layers.pi_s), "s");
        put(m, "ctmdp.vi_solve_s", median(layers.vi_s), "s");
        put(m, "ctmdp.lp_solves", static_cast<double>(lp), "count");
        put(m, "ctmdp.pi_solves", static_cast<double>(pi), "count");
        put(m, "ctmdp.vi_solves", static_cast<double>(vi), "count");
        put(m, "ctmdp.vi_sweeps", sum(layers.vi_sweeps), "count");
        put(m, "ctmdp.vi_ns_per_transition",
            median(layers.vi_ns_per_transition), "ns");
        put(m, "ctmdp.vi_bytes_per_sweep", median(layers.vi_bytes_per_sweep),
            "B");
        put(m, "core.model_build_s", median(layers.model_build_s), "s");
        put(m, "core.model_states", layers.model_states, "count");
        put(m, "core.model_transitions", layers.model_transitions, "count");
        put(m, "engine.run_s", median(layers.engine_s), "s");
        put(m, "engine.rounds", layers.engine_rounds, "count");
        put(m, "engine.job_max_s",
            layers.job_s.empty()
                ? 0.0
                : *std::max_element(layers.job_s.begin(), layers.job_s.end()),
            "s");
        put(m, "cache.lookups", static_cast<double>(last.cache.lookups()),
            "count");
        put(m, "cache.hit_rate", last.cache.hit_rate(), "ratio");
        put(m, "cache.bytes_resident_mb",
            static_cast<double>(last.cache.bytes_resident) / (1024.0 * 1024.0),
            "MB");
        put(m, "cache.evictions", static_cast<double>(last.cache.evictions),
            "count");
        put(m, "insertion.plans_evaluated",
            static_cast<double>(plans_evaluated), "count");
        put(m, "insertion.plans_pruned", static_cast<double>(plans_pruned),
            "count");
        put(m, "insertion.plan_s", median(layers.plan_s), "s");
        put(m, "insertion.search_s", median(layers.search_s), "s");
        put(m, "exec.workers", static_cast<double>(session->workers()),
            "count");
        put(m, "exec.job_parallelism", sum(layers.job_s) / batch_s, "ratio");
        put(m, "scenario.eval_overlap", median(overlap), "count");
        put(m, "scenario.jobs", static_cast<double>(last.runs.size()),
            "count");
        put(m, "scenario.batch_s", batch_s, "s");
        put(m, "scenario.first_result_s", median(traced_first_s), "s");
        put(m, "split.s", median(layers.split_s), "s");
        put(m, "split.subsystems", layers.subsystems, "count");
        put(m, "split.bridge_buffers", layers.bridge_buffers, "count");
        put(m, "scenario_io.load_s", median(load_s), "s");
        put(m, "session.construct_s", median(construct_s), "s");
        put(m, "scenario_io.report_json_s", median(json_s), "s");
        put(m, "scenario_io.report_bytes", static_cast<double>(report_bytes),
            "B");
        put(m, "trace.overhead", batch_s / median(wall_s), "ratio");
        put(m, "session.cold_batch_s", cold.wall_s, "s");
        result.set("per_layer", std::move(m));
        result.set("cache_lookup_base", last.cache.lookups());
    }
    std::printf("%s\n", result.dump().c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    try {
        args = parse_args(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "socbench_driver: %s\n", e.what());
        return 2;
    }
    try {
        return run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "socbench_driver: %s\n", e.what());
        return 1;
    }
}
