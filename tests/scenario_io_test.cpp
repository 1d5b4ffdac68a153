// The scenario JSON schema: round-trip fidelity for every built-in
// preset, strict validation with path-naming diagnostics, agreement with
// the documented key table, and robustness against mutated catalog files.
#include "scenario/scenario.hpp"
#include "scenario/scenario_io.hpp"
#include "util/contracts.hpp"
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace ss = socbuf::scenario;
using socbuf::util::JsonValue;

namespace {

/// Dump -> parse -> from_json, the full wire trip.
ss::ScenarioSpec round_trip(const ss::ScenarioSpec& spec) {
    return ss::spec_from_json(JsonValue::parse(ss::to_json(spec).dump()));
}

/// Expect spec_from_json(text) to throw, with the path named in the
/// diagnostic.
void expect_io_error(const std::string& text, const std::string& path) {
    try {
        (void)ss::spec_from_json(JsonValue::parse(text));
        FAIL() << "expected ScenarioIoError for " << text;
    } catch (const ss::ScenarioIoError& error) {
        EXPECT_EQ(error.path(), path) << error.what();
        EXPECT_NE(std::string(error.what()).find(path), std::string::npos)
            << "diagnostic must lead with the JSON path: " << error.what();
    }
}

/// Every non-object value of `node` by dotted path ("variants[0].np.
/// load_scale"); arrays of objects are descended, other arrays are leaves.
void collect_leaves(const JsonValue& node, const std::string& path,
                    std::map<std::string, JsonValue>& out) {
    if (node.is_object()) {
        for (const auto& [key, value] : node.members())
            collect_leaves(value, path.empty() ? key : path + "." + key, out);
    } else if (node.is_array() && node.size() > 0 && node.at(0).is_object()) {
        for (std::size_t i = 0; i < node.size(); ++i)
            collect_leaves(node.at(i), path + "[" + std::to_string(i) + "]",
                           out);
    } else {
        out[path] = node;
    }
}

/// Dotted key of every member, arrays of objects as "[i]"
/// ("variants[i].np.load_scale") — the notation of the README table.
void collect_keys(const JsonValue& node, const std::string& path,
                  std::set<std::string>& out) {
    if (node.is_object()) {
        for (const auto& [key, value] : node.members()) {
            const std::string dotted = path.empty() ? key : path + "." + key;
            out.insert(dotted);
            collect_keys(value, dotted, out);
        }
    } else if (node.is_array()) {
        for (std::size_t i = 0; i < node.size(); ++i)
            collect_keys(node.at(i), path + "[i]", out);
    }
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/// The shipped catalog, in name order.
std::vector<std::string> scenario_files() {
    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(
             std::string(SOCBUF_REPO_ROOT) + "/scenarios"))
        if (entry.path().extension() == ".json")
            files.push_back(entry.path().string());
    std::sort(files.begin(), files.end());
    return files;
}

/// One step of a member path: an object key, or an array index when the
/// key is empty.
struct Step {
    std::string key;
    std::size_t index = 0;
};
using MemberPath = std::vector<Step>;

/// Every member of `node` with its path, parents before children.
void collect_members(
    const JsonValue& node, MemberPath& prefix,
    std::vector<std::pair<MemberPath, const JsonValue*>>& out) {
    const auto visit = [&](Step step, const JsonValue& child) {
        prefix.push_back(std::move(step));
        out.emplace_back(prefix, &child);
        collect_members(child, prefix, out);
        prefix.pop_back();
    };
    if (node.is_object())
        for (const auto& [key, value] : node.members()) visit({key}, value);
    else if (node.is_array())
        for (std::size_t i = 0; i < node.size(); ++i)
            visit({"", i}, node.at(i));
}

std::string describe(const MemberPath& path) {
    std::string out = "$";
    for (const auto& step : path)
        out += step.key.empty() ? "[" + std::to_string(step.index) + "]"
                                : "." + step.key;
    return out;
}

/// A copy of `node` with the member at path[depth..] replaced by
/// `*replacement`, or deleted when `replacement` is null.
JsonValue edited(const JsonValue& node, const MemberPath& path,
                 std::size_t depth, const JsonValue* replacement) {
    const Step& step = path[depth];
    const bool last = depth + 1 == path.size();
    if (node.is_object()) {
        JsonValue out = JsonValue::object();
        for (const auto& [key, value] : node.members()) {
            if (key != step.key)
                out.set(key, value);
            else if (!last)
                out.set(key, edited(value, path, depth + 1, replacement));
            else if (replacement != nullptr)
                out.set(key, *replacement);
        }
        return out;
    }
    JsonValue out = JsonValue::array();
    for (std::size_t i = 0; i < node.size(); ++i) {
        if (i != step.index)
            out.push_back(node.at(i));
        else if (!last)
            out.push_back(edited(node.at(i), path, depth + 1, replacement));
        else if (replacement != nullptr)
            out.push_back(*replacement);
    }
    return out;
}

}  // namespace

TEST(ScenarioIo, EveryPresetRoundTripsBitIdentically) {
    // The contract of the issue: from_json(parse(dump(to_json(spec))))
    // == spec for every built-in preset, field for field.
    const ss::ScenarioRegistry registry;
    ASSERT_GT(registry.size(), 0u);
    for (const auto& spec : registry.specs()) {
        const ss::ScenarioSpec again = round_trip(spec);
        EXPECT_TRUE(again == spec) << spec.name;
        // And the dump itself is a fixed point (shortest round-trip
        // doubles), so exported catalog files are stable byte for byte.
        EXPECT_EQ(ss::to_json(again).dump(2), ss::to_json(spec).dump(2))
            << spec.name;
    }
}

TEST(ScenarioIo, RoundTripCoversEveryKnob) {
    // A spec with every leaf off its default — catches a writer that
    // forgets a field or a reader that drops one (the round trip would
    // silently reseat the default).
    ss::ScenarioSpec spec;
    spec.name = "everything";
    spec.description = "all knobs off-default";
    spec.testbench = ss::Testbench::kFigure1;
    spec.variants = {{"a", {3, 1.5, 0.75, {6, 4, 2, 4}, false}},
                     {"b", {5, 1.25, 0.5, {2, 3, 4, 5}, false}}};
    spec.budgets = {17, 40};
    spec.replications = 3;
    spec.sizing_iterations = 5;
    spec.sizing_eval_replications = 2;
    spec.solver = socbuf::core::SolverChoice::kValueIteration;
    spec.gauss_seidel = true;
    spec.use_modulated_models = true;
    spec.evaluate_timeout_policy = true;
    spec.timeout_threshold_scale = 2.5;
    spec.calibration_replications = 4;
    spec.insertion = {true, {"bf:b>f", "bg:b>g"}, 2.0, 3.0, 6};
    spec.sim.horizon = 900.0;
    spec.sim.warmup = 90.0;
    spec.sim.seed = 123456789;
    spec.sim.arbiter = socbuf::sim::ArbiterKind::kLongestQueue;
    spec.validate();

    std::map<std::string, JsonValue> defaults;
    collect_leaves(ss::to_json(ss::ScenarioSpec{}), "", defaults);
    std::map<std::string, JsonValue> leaves;
    collect_leaves(ss::to_json(spec), "", leaves);
    leaves.erase("version");  // the document's, not the spec's
    for (const auto& [path, value] : leaves) {
        const auto it = defaults.find(path);
        EXPECT_TRUE(it == defaults.end() || it->second != value)
            << path << " keeps its default " << value.dump();
    }
    EXPECT_TRUE(round_trip(spec) == spec);
}

TEST(ScenarioIo, ArbitraryFiniteDoublesRoundTripBitIdentically) {
    // Preset values are "nice" decimals; the schema contract must hold
    // for *any* finite double a user computes (0.1 + 0.2 has no short
    // decimal form; 1/3 and a subnormal-scale horizon ratio exercise the
    // shortest-round-trip emitter hardest). Field-for-field equality
    // after dump -> parse -> from_json means every number came back in
    // the exact same bits.
    ss::ScenarioSpec spec;
    spec.name = "arbitrary-doubles";
    spec.variants.clear();
    {
        ss::ScenarioVariant v;
        v.label = "awkward";
        v.np.load_scale = 0.1 + 0.2;       // 0.30000000000000004
        v.np.bus_rate_scale = 1.0 / 3.0;   // repeating binary fraction
        spec.variants.push_back(v);
    }
    spec.timeout_threshold_scale = 4.0 * (0.1 + 0.2);
    spec.evaluate_timeout_policy = true;
    spec.sim.horizon = 4000.0 * (1.0 + 1e-15);  // differs in the last ulps
    spec.sim.warmup = 4000.0 / 7.0;
    const ss::ScenarioSpec again = round_trip(spec);
    EXPECT_TRUE(again == spec);
    EXPECT_EQ(again.variants[0].np.load_scale, 0.1 + 0.2);
    EXPECT_EQ(again.sim.horizon, spec.sim.horizon);
    // The emitted document is itself a fixed point of dump -> parse.
    EXPECT_EQ(ss::to_json(again).dump(2), ss::to_json(spec).dump(2));
}

TEST(ScenarioIo, AbsentKeysKeepDefaults) {
    const auto spec =
        ss::spec_from_json(JsonValue::parse("{\"name\": \"minimal\"}"));
    const ss::ScenarioSpec defaults = [] {
        ss::ScenarioSpec s;
        s.name = "minimal";
        return s;
    }();
    EXPECT_TRUE(spec == defaults);
}

TEST(ScenarioIo, SchemaVersionIsStampedAndEnforced) {
    // Every emitted document leads with the schema version...
    const ss::ScenarioSpec spec = [] {
        ss::ScenarioSpec s;
        s.name = "versioned";
        return s;
    }();
    const JsonValue doc = ss::to_json(spec);
    ASSERT_TRUE(doc.contains("version"));
    EXPECT_EQ(doc.at("version").as_number(), ss::kScenarioSchemaVersion);
    // ...an explicit legacy version parses, absent means legacy
    // (AbsentKeysKeepDefaults), and versions this reader does not speak
    // are rejected at $.version before any other key is validated.
    EXPECT_TRUE(ss::spec_from_json(JsonValue::parse(
                    "{\"version\": 1, \"name\": \"v\"}")) ==
                ss::spec_from_json(JsonValue::parse("{\"name\": \"v\"}")));
    expect_io_error("{\"version\": 0, \"name\": \"v\"}", "$.version");
    expect_io_error("{\"version\": 3, \"name\": \"v\"}", "$.version");
    expect_io_error("{\"version\": \"1\", \"name\": \"v\"}", "$.version");
    // Rejection happens up front: a future-version document fails on the
    // version line even when later keys would also be unknown.
    expect_io_error("{\"version\": 3, \"name\": \"v\", \"zzz\": 1}",
                    "$.version");
}

TEST(ScenarioIo, VersionTwoRequiresTheInsertionBlock) {
    // The v2-defining key: a version-2 document must declare $.insertion
    // (even just {"search": false}), and a legacy document must not —
    // there the key is unknown and strict validation rejects it.
    expect_io_error("{\"version\": 2, \"name\": \"v\"}", "$.insertion");
    expect_io_error(
        "{\"version\": 1, \"name\": \"v\", "
        "\"insertion\": {\"search\": false}}",
        "$.insertion");
    const auto v2 = ss::spec_from_json(JsonValue::parse(
        "{\"version\": 2, \"name\": \"v\", "
        "\"insertion\": {\"search\": false}}"));
    const auto legacy =
        ss::spec_from_json(JsonValue::parse("{\"name\": \"v\"}"));
    EXPECT_TRUE(v2 == legacy);  // search off is the legacy behavior
    // The insertion block itself is strictly validated, path and all.
    expect_io_error(
        "{\"version\": 2, \"name\": \"v\", "
        "\"insertion\": {\"search\": 1}}",
        "$.insertion.search");
    expect_io_error(
        "{\"version\": 2, \"name\": \"v\", "
        "\"insertion\": {\"search\": true, \"candidates\": [\"\"]}}",
        "$.insertion.candidates[0]");
    expect_io_error(
        "{\"version\": 2, \"name\": \"v\", "
        "\"insertion\": {\"search\": true, \"bridge_site_cost\": 0}}",
        "$.insertion.bridge_site_cost");
    expect_io_error(
        "{\"version\": 2, \"name\": \"v\", "
        "\"insertion\": {\"search\": true, \"exhaustive_limit\": -1}}",
        "$.insertion.exhaustive_limit");
    expect_io_error(
        "{\"version\": 2, \"name\": \"v\", "
        "\"insertion\": {\"search\": true, \"zzz\": 1}}",
        "$.insertion.zzz");
}

TEST(ScenarioIo, DiagnosticsNameTheJsonPath) {
    expect_io_error("{\"name\": \"x\", \"budgetz\": [3]}", "$.budgetz");
    expect_io_error("{\"name\": \"x\", \"budgets\": \"320\"}", "$.budgets");
    expect_io_error("{\"name\": \"x\", \"budgets\": []}", "$.budgets");
    expect_io_error("{\"name\": \"x\", \"budgets\": [0]}", "$.budgets[0]");
    expect_io_error("{\"name\": \"x\", \"budgets\": [32.5]}", "$.budgets[0]");
    expect_io_error("{\"name\": \"\"}", "$.name");
    expect_io_error("{\"budgets\": [3]}", "$");  // missing name
    expect_io_error("{\"name\": \"x\", \"testbench\": \"tb\"}",
                    "$.testbench");
    expect_io_error("{\"name\": \"x\", \"solver\": \"magic\"}", "$.solver");
    expect_io_error("{\"name\": \"x\", \"replications\": 0}",
                    "$.replications");
    expect_io_error(
        "{\"name\": \"x\", \"variants\": [{\"np\": {\"load_scale\": 0}}]}",
        "$.variants[0].np.load_scale");
    expect_io_error(
        "{\"name\": \"x\", \"variants\": [{}, {\"np\": {\"pe\": 1}}]}",
        "$.variants[1].np.pe");
    expect_io_error(
        "{\"name\": \"x\", \"variants\": "
        "[{\"np\": {\"cluster_pe\": [2, 2]}}]}",
        "$.variants[0].np.cluster_pe");
    expect_io_error("{\"name\": \"x\", \"sim\": {\"horizon\": -1}}",
                    "$.sim.horizon");
    expect_io_error(
        "{\"name\": \"x\", \"sim\": {\"horizon\": 10, \"warmup\": 20}}",
        "$.sim.warmup");
    // With no explicit warmup the conflict comes from the horizon
    // undercutting the *default* warmup — blame the key the document
    // actually wrote.
    expect_io_error("{\"name\": \"x\", \"sim\": {\"horizon\": 100}}",
                    "$.sim.horizon");
    expect_io_error("{\"name\": \"x\", \"sim\": {\"arbiter\": \"coin\"}}",
                    "$.sim.arbiter");
    expect_io_error("{\"name\": \"x\", \"sim\": {\"seed\": 1.5}}",
                    "$.sim.seed");
    // Whole numbers are bounded by their member's type (an int here): a
    // value past it is refused, never wrapped.
    expect_io_error("{\"name\": \"x\", \"sizing_iterations\": 4294967297}",
                    "$.sizing_iterations");
    expect_io_error("{\"name\": \"x\", \"sizing_iterations\": 2147483648}",
                    "$.sizing_iterations");
}

TEST(ScenarioIo, CatalogDocumentsParseAndReportPerScenarioPaths) {
    const auto specs = ss::specs_from_json(JsonValue::parse(
        "{\"scenarios\": [{\"name\": \"a\"}, {\"name\": \"b\"}]}"));
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].name, "a");
    EXPECT_EQ(specs[1].name, "b");
    try {
        (void)ss::specs_from_json(JsonValue::parse(
            "{\"scenarios\": [{\"name\": \"a\"}, {\"name\": \"b\", "
            "\"budgets\": []}]}"));
        FAIL() << "expected ScenarioIoError";
    } catch (const ss::ScenarioIoError& error) {
        EXPECT_EQ(error.path(), "$.scenarios[1].budgets");
    }
    // A catalog document rejects keys beside "scenarios"/"batches".
    try {
        (void)ss::specs_from_json(JsonValue::parse(
            "{\"scenarios\": [{\"name\": \"a\"}], \"extra\": 1}"));
        FAIL() << "expected ScenarioIoError";
    } catch (const ss::ScenarioIoError& error) {
        EXPECT_EQ(error.path(), "$.extra");
    }
}

TEST(ScenarioIo, CatalogBatchesRoundTripAndResolve) {
    // User-defined $.batches[]: parse, register, expand, and re-emit.
    const auto document = ss::document_from_json(JsonValue::parse(
        "{\"scenarios\": [{\"name\": \"a\"}, {\"name\": \"b\"}],"
        " \"batches\": [{\"name\": \"both\","
        " \"description\": \"a then b\","
        " \"scenarios\": [\"a\", \"b\"]}]}"));
    ASSERT_EQ(document.scenarios.size(), 2u);
    ASSERT_EQ(document.batches.size(), 1u);
    EXPECT_EQ(document.batches[0].name, "both");
    EXPECT_EQ(document.batches[0].description, "a then b");

    ss::ScenarioRegistry registry;
    registry.load_text(
        "{\"scenarios\": [{\"name\": \"a\"}, {\"name\": \"b\"}],"
        " \"batches\": [{\"name\": \"both\", \"scenarios\": [\"a\", \"b\"]},"
        // A loaded batch may also reference scenarios already registered.
        " {\"name\": \"mixed\", \"scenarios\": [\"a\", \"figure1\"]}]}");
    ASSERT_TRUE(registry.contains_batch("both"));
    ASSERT_TRUE(registry.contains_batch("mixed"));
    const auto expanded = registry.expand("mixed");
    ASSERT_EQ(expanded.size(), 2u);
    EXPECT_EQ(expanded[0].name, "a");
    EXPECT_EQ(expanded[1].name, "figure1");

    // catalog_to_json re-emits batches alongside scenarios; the document
    // round-trips through parse -> document_from_json.
    const JsonValue catalog = ss::catalog_to_json(
        document.scenarios, {registry.get_batch("both")});
    const auto again =
        ss::document_from_json(JsonValue::parse(catalog.dump(2)));
    ASSERT_EQ(again.batches.size(), 1u);
    EXPECT_EQ(again.batches[0].scenarios, document.batches[0].scenarios);

    // Malformed batch entries name their path.
    try {
        (void)ss::document_from_json(JsonValue::parse(
            "{\"scenarios\": [{\"name\": \"a\"}],"
            " \"batches\": [{\"name\": \"x\", \"scenarios\": []}]}"));
        FAIL() << "expected ScenarioIoError";
    } catch (const ss::ScenarioIoError& error) {
        EXPECT_EQ(error.path(), "$.batches[0].scenarios");
    }
}

TEST(ScenarioIo, BatchWithUnknownMemberLeavesRegistryUntouched) {
    // Atomicity: a batch referencing a scenario that is neither in the
    // document nor already registered must reject the whole load —
    // scenarios listed before it are NOT half-adopted.
    ss::ScenarioRegistry registry;
    const auto names_before = registry.names();
    const auto batches_before = registry.batches().size();
    EXPECT_THROW(
        (void)registry.load_text(
            "{\"scenarios\": [{\"name\": \"fresh\"}],"
            " \"batches\": [{\"name\": \"broken\","
            " \"scenarios\": [\"fresh\", \"no-such-scenario\"]}]}"),
        ss::ScenarioIoError);
    EXPECT_EQ(registry.names(), names_before);
    EXPECT_FALSE(registry.contains("fresh"));
    EXPECT_EQ(registry.batches().size(), batches_before);
}

TEST(ScenarioIo, EngineOwnedSimFieldsAreRejectedOnBothSides) {
    ss::ScenarioSpec spec;
    spec.name = "x";
    spec.sim.timeout_enabled = true;
    EXPECT_THROW((void)ss::to_json(spec), ss::ScenarioIoError);
    // Seeds past 2^53 cannot survive the double trip — to_json must
    // refuse them up front (an exportable spec is always loadable).
    ss::ScenarioSpec big_seed;
    big_seed.name = "x";
    big_seed.sim.seed = (std::uint64_t{1} << 53) + 2;
    EXPECT_THROW((void)ss::to_json(big_seed), ss::ScenarioIoError);
    big_seed.sim.seed = std::uint64_t{1} << 53;
    EXPECT_NO_THROW((void)ss::to_json(big_seed));
    try {
        (void)ss::spec_from_json(JsonValue::parse(
            "{\"name\": \"x\", \"sim\": {\"timeout_enabled\": true}}"));
        FAIL() << "expected ScenarioIoError";
    } catch (const ss::ScenarioIoError& error) {
        EXPECT_EQ(error.path(), "$.sim.timeout_enabled");
    }
}

TEST(ScenarioIo, RegistryLoadsTextFilesAndMerges) {
    ss::ScenarioRegistry registry;
    const std::size_t presets = registry.size();
    const std::size_t added = registry.load_text(
        "{\"scenarios\": [{\"name\": \"from-text\", \"budgets\": [9]},"
        " {\"name\": \"figure1\", \"budgets\": [7]}]}");
    EXPECT_EQ(added, 2u);
    EXPECT_EQ(registry.size(), presets + 1);  // figure1 replaced in place
    EXPECT_EQ(registry.get("from-text").budgets, std::vector<long>{9});
    EXPECT_EQ(registry.get("figure1").budgets, std::vector<long>{7});

    // A malformed document leaves the registry unchanged.
    ss::ScenarioRegistry untouched;
    const auto names_before = untouched.names();
    EXPECT_THROW(
        (void)untouched.load_text(
            "{\"scenarios\": [{\"name\": \"ok\"}, {\"name\": \"bad\", "
            "\"budgets\": []}]}"),
        ss::ScenarioIoError);
    EXPECT_EQ(untouched.names(), names_before);

    // merge() adopts scenarios and batches (same-name replaces).
    ss::ScenarioRegistry target;
    target.merge(registry);
    EXPECT_TRUE(target.contains("from-text"));
    EXPECT_EQ(target.get("figure1").budgets, std::vector<long>{7});
    EXPECT_TRUE(target.contains_batch("paper-suite"));

    // load_file round: write, load, compare.
    const std::string path = "scenario_io_test_tmp.json";
    {
        std::ofstream out(path);
        out << ss::to_json(registry.get("from-text")).dump(2);
    }
    ss::ScenarioRegistry from_file;
    EXPECT_EQ(from_file.load_file(path), 1u);
    EXPECT_TRUE(from_file.get("from-text") == registry.get("from-text"));
    std::remove(path.c_str());

    EXPECT_THROW((void)from_file.load_file("definitely_not_here.json"),
                 ss::ScenarioIoError);
}

TEST(ScenarioIo, NamesRoundTripThroughEnumHelpers) {
    using socbuf::core::SolverChoice;
    for (const auto solver :
         {SolverChoice::kAuto, SolverChoice::kLp,
          SolverChoice::kValueIteration, SolverChoice::kPolicyIteration}) {
        SolverChoice parsed{};
        ASSERT_TRUE(ss::solver_from_string(ss::to_string(solver), parsed));
        EXPECT_EQ(parsed, solver);
    }
    using socbuf::sim::ArbiterKind;
    for (const auto arbiter :
         {ArbiterKind::kFixedPriority, ArbiterKind::kRoundRobin,
          ArbiterKind::kLongestQueue, ArbiterKind::kWeightedRandom}) {
        ArbiterKind parsed{};
        ASSERT_TRUE(ss::arbiter_from_string(ss::to_string(arbiter), parsed));
        EXPECT_EQ(parsed, arbiter);
    }
    socbuf::core::SolverChoice solver{};
    EXPECT_FALSE(ss::solver_from_string("magic", solver));
    socbuf::sim::ArbiterKind arbiter{};
    EXPECT_FALSE(ss::arbiter_from_string("coin", arbiter));
    ss::Testbench testbench{};
    EXPECT_TRUE(ss::testbench_from_string("figure1", testbench));
    EXPECT_FALSE(ss::testbench_from_string("figure2", testbench));
}

TEST(ScenarioIo, ReadmeTableNamesExactlyTheEmittedKeys) {
    // scenarios/README.md documents the schema one key per row; the rows
    // must be exactly the keys to_json writes, so a field added, renamed
    // or removed in the field lists cannot leave the table behind.
    std::set<std::string> emitted;
    collect_keys(ss::to_json(ss::ScenarioSpec{}), "", emitted);
    std::set<std::string> documented;
    std::istringstream readme(
        read_file(std::string(SOCBUF_REPO_ROOT) + "/scenarios/README.md"));
    for (std::string line; std::getline(readme, line);) {
        if (line.rfind("| `", 0) != 0) continue;
        const std::size_t end = line.find('`', 3);
        ASSERT_NE(end, std::string::npos) << line;
        documented.insert(line.substr(3, end - 3));
    }
    EXPECT_EQ(documented, emitted);
}

TEST(ScenarioIo, MutatedCatalogFilesAreRejectedOrLossless) {
    // Deterministic mutations of every shipped scenario file: each member
    // deleted, replaced by every other JSON kind, and (numbers) set to
    // values at and past the edges of the member types. A reader either
    // refuses the document with ScenarioIoError or accepts it losslessly —
    // writing the result back reproduces the mutated document — so no
    // value is silently wrapped, rounded or dropped.
    const std::vector<JsonValue> kinds = {JsonValue(), JsonValue(true),
                                          JsonValue(1.0), JsonValue("x"),
                                          JsonValue::array(),
                                          JsonValue::object()};
    const std::vector<double> numbers = {-1.0,         0.0,
                                         0.5,          2147483648.0,
                                         4294967297.0, 9007199254740994.0,
                                         1e308};
    const auto files = scenario_files();
    ASSERT_FALSE(files.empty());
    for (const auto& file : files) {
        const JsonValue original = JsonValue::parse(read_file(file));
        const bool catalog = original.contains("scenarios");
        const auto reload = [&](const JsonValue& document) {
            if (!catalog) return ss::to_json(ss::spec_from_json(document));
            const auto read = ss::document_from_json(document);
            return ss::catalog_to_json(read.scenarios, read.batches);
        };
        std::size_t accepted = 0;
        std::size_t rejected = 0;
        const auto mutate = [&](const MemberPath& path,
                                const JsonValue* replacement) {
            const JsonValue mutated = edited(original, path, 0, replacement);
            JsonValue written;
            try {
                written = reload(mutated);
            } catch (const ss::ScenarioIoError&) {
                ++rejected;
                return;
            }
            ++accepted;
            // A deleted key reads as its default, which the writer spells
            // out; drop it again before comparing.
            if (replacement == nullptr && !path.back().key.empty())
                written = edited(written, path, 0, nullptr);
            EXPECT_TRUE(written == mutated)
                << file << " " << describe(path) << " <- "
                << (replacement ? replacement->dump() : "deleted")
                << " was accepted but written back as " << written.dump();
        };
        std::vector<std::pair<MemberPath, const JsonValue*>> members;
        MemberPath prefix;
        collect_members(original, prefix, members);
        for (const auto& [path, target] : members) {
            mutate(path, nullptr);
            for (const auto& kind : kinds)
                if (kind.kind() != target->kind()) mutate(path, &kind);
            if (target->kind() == JsonValue::Kind::kNumber)
                for (const double number : numbers) {
                    const JsonValue value(number);
                    mutate(path, &value);
                }
        }
        EXPECT_GT(accepted, 0u) << file;
        EXPECT_GT(rejected, 0u) << file;
    }
}
