#include "scenario/scenario_io.hpp"

#include "util/contracts.hpp"
#include "util/strings.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <type_traits>

namespace socbuf::scenario {

namespace {

// ------------------------------------------------------------ enum names

/// One schema name of an enum value. Each table is the single source of
/// its enum's to_string, *_from_string and "expected a, b or c" text.
template <class E>
struct Name {
    E value;
    const char* text;
};

constexpr Name<Testbench> kTestbenchNames[] = {
    {Testbench::kFigure1, "figure1"},
    {Testbench::kNetworkProcessor, "network-processor"},
};
constexpr Name<core::SolverChoice> kSolverNames[] = {
    {core::SolverChoice::kAuto, "auto"},
    {core::SolverChoice::kLp, "lp"},
    {core::SolverChoice::kValueIteration, "value-iteration"},
    {core::SolverChoice::kPolicyIteration, "policy-iteration"},
};
constexpr Name<sim::ArbiterKind> kArbiterNames[] = {
    {sim::ArbiterKind::kFixedPriority, "fixed-priority"},
    {sim::ArbiterKind::kRoundRobin, "round-robin"},
    {sim::ArbiterKind::kLongestQueue, "longest-queue"},
    {sim::ArbiterKind::kWeightedRandom, "weighted-random"},
};

const auto& names_of(Testbench) { return kTestbenchNames; }
const auto& names_of(core::SolverChoice) { return kSolverNames; }
const auto& names_of(sim::ArbiterKind) { return kArbiterNames; }

template <class E>
const char* name_of(E value) {
    for (const auto& name : names_of(value))
        if (name.value == value) return name.text;
    return "?";
}

template <class E>
bool value_of(const std::string& text, E& out) {
    for (const auto& name : names_of(out)) {
        if (text == name.text) {
            out = name.value;
            return true;
        }
    }
    return false;
}

template <class E>
std::string expected_names() {
    const auto& names = names_of(E{});
    std::string out;
    for (std::size_t i = 0; i < std::size(names); ++i) {
        if (i > 0) out += i + 1 < std::size(names) ? ", " : " or ";
        out += names[i].text;
    }
    return out;
}

// ------------------------------------------------------------ paths, rules

/// A JSON path as a chain of steps back to the root, spelled out only
/// when a diagnostic needs it — reading builds no path text.
struct Path {
    const Path* parent = nullptr;  // nullptr: `key` is the root's text
    const char* key = nullptr;     // a ".key" step; nullptr: "[index]"
    std::size_t index = 0;

    [[nodiscard]] std::string str() const {
        if (parent == nullptr) return key;
        if (key != nullptr) return parent->str() + "." + key;
        return parent->str() + "[" + std::to_string(index) + "]";
    }
};

[[noreturn]] void fail(const Path& at, const std::string& what) {
    throw ScenarioIoError(at.str(), what);
}

enum RuleFlag : unsigned {
    kPositive = 1U << 0,       // numbers: > 0
    kNonEmpty = 1U << 1,       // a string or list: not empty
    kNonEmptyItems = 1U << 2,  // each string of a list: not empty
    kRequired = 1U << 3,       // absent is an error, not the default
    kSinceV2 = 1U << 4,        // unknown below schema version 2, required
                               // (blamed at its own path) from it on
};

/// What a value must satisfy beyond its JSON kind. Whole numbers are also
/// bounded by their member's type; in a list, the number rules apply to
/// each element.
struct Rule {
    unsigned flags = 0;
    double min = -std::numeric_limits<double>::infinity();
    double max = std::numeric_limits<double>::infinity();

    // Implicit, so a row can name its flags alone.
    constexpr Rule(unsigned flag_set = 0) : flags(flag_set) {}
    [[nodiscard]] constexpr bool has(RuleFlag flag) const {
        return (flags & flag) != 0;
    }
};

constexpr Rule within(double min, double max, unsigned flags = 0) {
    Rule rule(flags);
    rule.min = min;
    rule.max = max;
    return rule;
}
constexpr Rule at_least(double min, unsigned flags = 0) {
    return within(min, std::numeric_limits<double>::infinity(), flags);
}

// Keys that the cross-field checks name besides their own rows.
constexpr char kHorizon[] = "horizon";
constexpr char kWarmup[] = "warmup";
constexpr char kClusterPe[] = "cluster_pe";

// ------------------------------------------------------------ the schema
//
// One field list per schema object, one row per key: JSON key, member and
// rule. The strict reader and the writer both walk these lists, so key
// order, range rules and $.path diagnostics have one source;
// scenarios/README.md documents the same keys (scenario_io_test checks
// that the two sets agree). Member<V, T> is T for the reader and const T
// for the writer.

template <class V, class T>
using Member = std::conditional_t<V::kWrites, const T, T>;

template <class V>
void fields(V& v, Member<V, arch::NetworkProcessorParams>& np) {
    v("pe_per_cluster", np.pe_per_cluster, at_least(2));
    v("bus_rate_scale", np.bus_rate_scale, kPositive);
    v("load_scale", np.load_scale, kPositive);
    v(kClusterPe, np.cluster_pe, at_least(2));
    v("crypto_cluster", np.crypto_cluster);
}

template <class V>
void fields(V& v, Member<V, ScenarioVariant>& variant) {
    v("label", variant.label);
    v("np", variant.np);
}

template <class V>
void fields(V& v, Member<V, InsertionSpec>& insertion) {
    v("search", insertion.search);
    v("candidates", insertion.candidates, kNonEmptyItems);
    v("processor_site_cost", insertion.processor_site_cost, kPositive);
    v("bridge_site_cost", insertion.bridge_site_cost, kPositive);
    v("exhaustive_limit", insertion.exhaustive_limit);
}

template <class V>
void fields(V& v, Member<V, sim::SimConfig>& sim) {
    v(kHorizon, sim.horizon, kPositive);
    v(kWarmup, sim.warmup, at_least(0));
    v("seed", sim.seed);
    v("arbiter", sim.arbiter);
}

template <class V>
void fields(V& v, Member<V, BatchPreset>& batch) {
    v("name", batch.name, kRequired | kNonEmpty);
    v("description", batch.description);
    v("scenarios", batch.scenarios, kRequired | kNonEmpty | kNonEmptyItems);
}

/// The version is the document's, not the spec's: the reader records the
/// declared one (absent = legacy), the writer stamps the current one. It
/// comes first, so a version this reader does not speak fails on that
/// line rather than on whichever changed key follows.
template <class V>
void fields(V& v, Member<V, ScenarioSpec>& spec) {
    v("version", v.version,
      within(kLegacyScenarioSchemaVersion, kScenarioSchemaVersion));
    v("name", spec.name, kRequired | kNonEmpty);
    v("description", spec.description);
    v("testbench", spec.testbench);
    v("variants", spec.variants, kNonEmpty);
    v("budgets", spec.budgets, at_least(1, kNonEmpty));
    v("replications", spec.replications, at_least(1));
    v("sizing_iterations", spec.sizing_iterations, at_least(1));
    v("sizing_eval_replications", spec.sizing_eval_replications, at_least(1));
    v("solver", spec.solver);
    v("gauss_seidel", spec.gauss_seidel);
    v("modulated_models", spec.use_modulated_models);
    v("evaluate_timeout_policy", spec.evaluate_timeout_policy);
    v("timeout_threshold_scale", spec.timeout_threshold_scale, kPositive);
    v("calibration_replications", spec.calibration_replications, at_least(1));
    v("insertion", spec.insertion, kSinceV2);
    v("sim", spec.sim);
}

template <class V>
void fields(V& v, Member<V, ScenarioDocument>& document) {
    v("scenarios", document.scenarios, kRequired | kNonEmpty);
    v("batches", document.batches);
}

// ------------------------------------------------------------ reading

template <class T>
struct IsList : std::false_type {};
template <class T>
struct IsList<std::vector<T>> : std::true_type {};

/// The largest magnitude a JSON number (a double) holds exactly as a
/// whole number.
constexpr std::int64_t kMaxExactWhole = std::int64_t{1} << 53;

const char* kind_name(util::JsonValue::Kind kind) {
    switch (kind) {
        case util::JsonValue::Kind::kNull: return "null";
        case util::JsonValue::Kind::kBool: return "a boolean";
        case util::JsonValue::Kind::kNumber: return "a number";
        case util::JsonValue::Kind::kString: return "a string";
        case util::JsonValue::Kind::kArray: return "an array";
        case util::JsonValue::Kind::kObject: return "an object";
    }
    return "?";
}

const util::JsonValue& expect(const util::JsonValue& value,
                              util::JsonValue::Kind kind, const Path& at) {
    if (value.kind() != kind)
        fail(at, std::string("expected ") + kind_name(kind) + ", got " +
                     kind_name(value.kind()));
    return value;
}

template <class T>
void read_value(const util::JsonValue& value, const Path& at, T& out,
                const Rule& rule);

/// Strict reader of one JSON object: each row claims its key, finish()
/// rejects whatever no row claimed.
class Reader {
public:
    static constexpr bool kWrites = false;
    int version = kLegacyScenarioSchemaVersion;

    Reader(const util::JsonValue& object, const Path& path)
        : object_(expect(object, util::JsonValue::Kind::kObject, path)),
          path_(path) {}

    template <class T>
    void operator()(const char* key, T& member, const Rule& rule = {}) {
        // Below version 2 a v2 row is skipped: its key stays unclaimed, so
        // a legacy document naming it fails as an unknown key.
        if (rule.has(kSinceV2) && version < kScenarioSchemaVersion) return;
        if (const util::JsonValue* value = claim(key))
            read_value(*value, Path{&path_, key}, member, rule);
        else if (rule.has(kSinceV2))
            fail(Path{&path_, key},
                 "required at schema version 2 (declare at least "
                 "{\"search\": false})");
        else if (rule.has(kRequired))
            fail(path_, std::string("missing required key '") + key + "'");
    }

    /// Rejects the first member (in document order) no row claimed. Rows
    /// are far fewer than 64, so an object with more members has an
    /// unclaimed one among its first 64 and fails there.
    void finish() const {
        const auto& members = object_.members();
        for (std::size_t i = 0; i < members.size(); ++i)
            if (i >= 64 || ((claimed_ >> i) & 1U) == 0)
                fail(Path{&path_, members[i].first.c_str()}, "unknown key");
    }

    [[nodiscard]] bool has(const char* key) const {
        return object_.contains(key);
    }
    [[nodiscard]] const Path& path() const { return path_; }

private:
    const util::JsonValue* claim(const char* key) {
        const auto& members = object_.members();
        for (std::size_t i = 0; i < members.size(); ++i) {
            if (members[i].first != key) continue;
            if (i < 64) claimed_ |= std::uint64_t{1} << i;
            return &members[i].second;
        }
        return nullptr;
    }

    const util::JsonValue& object_;
    const Path& path_;
    std::uint64_t claimed_ = 0;  // bit i: member i was read by a row
};

// Cross-field rules, run once an object's rows are read and its keys
// checked (no-op for the objects that have none).
template <class T>
void check(const Reader&, const T&) {}

void check(const Reader& reader, const arch::NetworkProcessorParams& np) {
    if (!np.cluster_pe.empty() && np.cluster_pe.size() != 4)
        fail(Path{&reader.path(), kClusterPe},
             "must be empty or name all four clusters (ingress, classify, "
             "crypto, egress)");
}

void check(const Reader& reader, const sim::SimConfig& sim) {
    if (sim.warmup < sim.horizon) return;
    // Blame the key the document actually wrote: with no explicit warmup
    // the conflict comes from the horizon undercutting the *default*
    // warmup, which would otherwise be invisible.
    const Path warmup{&reader.path(), kWarmup};
    if (reader.has(kWarmup))
        fail(warmup, "must be below the simulation horizon");
    fail(Path{&reader.path(), kHorizon},
         "must exceed the default warmup (" +
             util::format_compact(sim.warmup) + "); set " + warmup.str() +
             " explicitly");
}

void check(const Reader& reader, const ScenarioSpec& spec) {
    // Backstop: the structural checks shared with compiled specs. The rows
    // already cover them with precise paths; anything that still slips
    // through is reported at the spec's root.
    try {
        spec.validate();
    } catch (const util::ContractViolation& violation) {
        fail(reader.path(), violation.what());
    }
}

template <class T>
void read_value(const util::JsonValue& value, const Path& at, T& out,
                const Rule& rule) {
    using Kind = util::JsonValue::Kind;
    if constexpr (std::is_same_v<T, bool>) {
        out = expect(value, Kind::kBool, at).as_bool();
    } else if constexpr (std::is_same_v<T, std::string>) {
        out = expect(value, Kind::kString, at).as_string();
        if (rule.has(kNonEmpty) && out.empty()) fail(at, "must not be empty");
    } else if constexpr (std::is_enum_v<T>) {
        const std::string& text = expect(value, Kind::kString, at).as_string();
        if (!value_of(text, out))
            fail(at, std::string("unknown ") + at.key + " '" + text +
                         "' (expected " + expected_names<T>() + ")");
    } else if constexpr (std::is_arithmetic_v<T>) {
        const double number = expect(value, Kind::kNumber, at).as_number();
        double min = rule.min;
        double max = rule.max;
        if constexpr (std::is_integral_v<T>) {
            using Limits = std::numeric_limits<T>;
            if (std::floor(number) != number ||
                std::abs(number) > static_cast<double>(kMaxExactWhole))
                fail(at, "expected a whole number");
            min = std::max(min, static_cast<double>(Limits::min()));
            max = std::min(max, static_cast<double>(Limits::max()));
        }
        if (rule.has(kPositive) && !(number > 0.0)) fail(at, "must be > 0");
        if (number < min) fail(at, "must be >= " + util::format_compact(min));
        if (number > max) fail(at, "must be <= " + util::format_compact(max));
        out = static_cast<T>(number);
    } else if constexpr (IsList<T>::value) {
        expect(value, Kind::kArray, at);
        if (rule.has(kNonEmpty) && value.size() == 0) {
            // List keys are plural nouns: "budgets" -> "one budget".
            const std::string noun(at.key, std::strlen(at.key) - 1);
            fail(at, "must name at least one " + noun);
        }
        Rule item = rule;
        item.flags &= ~kNonEmpty;
        if (rule.has(kNonEmptyItems)) item.flags |= kNonEmpty;
        out.clear();
        out.resize(value.size());
        for (std::size_t i = 0; i < value.size(); ++i)
            read_value(value.at(i), Path{&at, nullptr, i}, out[i], item);
    } else {
        Reader reader(value, at);
        fields(reader, out);
        reader.finish();
        check(reader, out);
    }
}

// ------------------------------------------------------------ writing

template <class T>
util::JsonValue write_value(const T& value, const Path& at);

/// Builds one JSON object from an object's rows, in row order.
class Writer {
public:
    static constexpr bool kWrites = true;
    const int version = kScenarioSchemaVersion;
    util::JsonValue node = util::JsonValue::object();

    explicit Writer(const Path& path) : path_(path) {}

    template <class T>
    void operator()(const char* key, const T& member, const Rule& = {}) {
        node.set(key, write_value(member, Path{&path_, key}));
    }

private:
    const Path& path_;
};

/// Refuses an object that could not round-trip (no-op for the objects
/// that always can).
template <class T>
void refuse(const T&, const Path&) {}

void refuse(const sim::SimConfig& sim, const Path& at) {
    // A spec-level sim config is a plain evaluation setup; the engine-owned
    // fields (arbitration weights, timeout state) are run artifacts, never
    // scenario inputs — refuse them rather than drop them silently.
    if (sim.timeout_enabled || sim.timeout_threshold != 0.0 ||
        !sim.site_weights.empty() || !sim.site_timeout_thresholds.empty())
        fail(at,
             "engine-owned sim fields (timeouts, site weights) are not part "
             "of the scenario schema; use evaluate_timeout_policy");
}

template <class T>
util::JsonValue write_value(const T& value, const Path& at) {
    if constexpr (std::is_enum_v<T>) {
        return name_of(value);
    } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
        // Past 2^53 the number would be emitted rounded and refused on the
        // way back in: refuse it here, so every exported spec is loadable.
        bool exact = false;
        if constexpr (std::is_signed_v<T>)
            exact = value <= kMaxExactWhole && value >= -kMaxExactWhole;
        else
            exact = value <= static_cast<std::uint64_t>(kMaxExactWhole);
        if (!exact)
            fail(at, "must be <= 2^53 to round-trip exactly through JSON");
        return static_cast<double>(value);
    } else if constexpr (IsList<T>::value) {
        util::JsonValue list = util::JsonValue::array();
        for (std::size_t i = 0; i < value.size(); ++i)
            list.push_back(write_value(value[i], Path{&at, nullptr, i}));
        return list;
    } else if constexpr (std::is_class_v<T> &&
                         !std::is_same_v<T, std::string>) {
        refuse(value, at);
        Writer writer(at);
        fields(writer, value);
        return std::move(writer.node);
    } else {
        return value;
    }
}

/// Walks a field list only to ask whether an object holds any of its keys.
struct KeyProbe {
    static constexpr bool kWrites = false;
    const util::JsonValue& object;
    bool found = false;

    template <class T>
    void operator()(const char* key, T&, const Rule& = {}) {
        found = found || object.contains(key);
    }
};

bool is_catalog(const util::JsonValue& document) {
    if (!document.is_object()) return false;
    ScenarioDocument shape;
    KeyProbe probe{document};
    fields(probe, shape);
    return probe.found;
}

const Path kRoot{nullptr, "$"};

}  // namespace

const char* to_string(Testbench testbench) { return name_of(testbench); }
bool testbench_from_string(const std::string& text, Testbench& out) {
    return value_of(text, out);
}

const char* to_string(core::SolverChoice solver) { return name_of(solver); }
bool solver_from_string(const std::string& text, core::SolverChoice& out) {
    return value_of(text, out);
}

const char* to_string(sim::ArbiterKind arbiter) { return name_of(arbiter); }
bool arbiter_from_string(const std::string& text, sim::ArbiterKind& out) {
    return value_of(text, out);
}

util::JsonValue to_json(const ScenarioSpec& spec) {
    return write_value(spec, kRoot);
}

ScenarioSpec spec_from_json(const util::JsonValue& value,
                            const std::string& path) {
    ScenarioSpec spec;
    read_value(value, Path{nullptr, path.c_str()}, spec, Rule{});
    return spec;
}

ScenarioDocument document_from_json(const util::JsonValue& document) {
    ScenarioDocument out;
    if (is_catalog(document))
        read_value(document, kRoot, out, Rule{});
    else
        read_value(document, kRoot, out.scenarios.emplace_back(), Rule{});
    return out;
}

std::vector<ScenarioSpec> specs_from_json(const util::JsonValue& document) {
    return document_from_json(document).scenarios;
}

util::JsonValue catalog_to_json(const std::vector<ScenarioSpec>& specs,
                                const std::vector<BatchPreset>& batches) {
    return write_value(ScenarioDocument{specs, batches}, kRoot);
}

util::JsonValue export_json(const ScenarioRegistry& registry,
                            const std::string& name) {
    // A batch exports as a self-contained catalog: its member specs plus
    // its own batch entry, so loading the file back registers the batch
    // too (the members are all present, satisfying load_json's check).
    if (registry.contains_batch(name))
        return catalog_to_json(registry.expand(name),
                               {registry.get_batch(name)});
    return to_json(registry.get(name));
}

ScenarioDocument load_scenario_document(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw ScenarioIoError(path, "cannot read scenario file");
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad()) throw ScenarioIoError(path, "cannot read scenario file");
    util::JsonValue document;
    try {
        document = util::JsonValue::parse(text.str());
    } catch (const util::JsonError& error) {
        throw ScenarioIoError(path, error.what());
    }
    return document_from_json(document);
}

std::vector<ScenarioSpec> load_scenario_file(const std::string& path) {
    return load_scenario_document(path).scenarios;
}

}  // namespace socbuf::scenario
