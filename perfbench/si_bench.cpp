// si_bench — time to a checked verdict, end to end and split by layer.
//
// One operation ("op") starts from .g text and ends with a verdict that
// the harness checks against a known answer:
//   * synthesis workloads (paper_table1, gen_csc): read_g -> state graph
//     -> synthesize_outcome -> gate-level verifier -> MC certificate;
//   * wide_explicit: read_g -> state graph -> RegionAnalysis -> MC check.
// Each workload is a closed loop with one spec in flight, making a fixed
// number of whole passes over its inputs (see Workload::nominal_pass_s).
// Library observability stays off; the pool width is fixed and recorded.
//
// With --trace 1 the harness records its own spans around every public
// library call (name, start, end, parent, request id = op index), keeps
// them in memory, writes them out at the end and derives the per-layer
// ledger from them plus the util::Budget consumption around each call.
//
//   si_bench --workload paper_table1 --seed 1 --seconds 10 --trace 0
//
// The last stdout line is the result object; the line before it is the
// provenance/report object. Exit status 1 means a verdict contradicted
// its known answer (or the trace lost coverage), 2 a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "si/bdd/symbolic.hpp"
#include "si/bench_stgs/table1.hpp"
#include "si/gen/gen.hpp"
#include "si/mc/certificate.hpp"
#include "si/mc/requirement.hpp"
#include "si/mc/symbolic.hpp"
#include "si/sg/from_stg.hpp"
#include "si/sg/regions.hpp"
#include "si/stg/parse.hpp"
#include "si/synth/insertion.hpp"
#include "si/synth/synthesize.hpp"
#include "si/util/budget.hpp"
#include "si/util/error.hpp"
#include "si/util/parallel.hpp"
#include "si/verify/verifier.hpp"

namespace {

using namespace si;
using Clock = std::chrono::steady_clock;
using util::Resource;

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

double quantile(std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    if (v.empty()) return 0;
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the harness around each library call.

struct SpanRec {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::size_t request = 0;
};

class Tracer {
public:
    explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

    int open(const char* name, std::size_t request) {
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, now_ns(), 0, parent, request});
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }
    void close(int id) {
        spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
        stack_.pop_back();
    }
    [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }

private:
    std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
            .count();
    }
    Clock::time_point epoch_;
    std::vector<SpanRec> spans_;
    std::vector<int> stack_;
};

/// RAII span; a no-op when tracing is off.
class SpanScope {
public:
    SpanScope(Tracer* t, const char* name, std::size_t request)
        : tracer_(t), id_(t ? t->open(name, request) : -1) {}
    ~SpanScope() {
        if (tracer_) tracer_->close(id_);
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    Tracer* tracer_;
    int id_;
};

/// Work counts summed over the measured ops (per-layer ledger).
using Ledger = std::map<std::string, double>;

struct Consumed {
    std::uint64_t v[util::kNumResources] = {};
    explicit Consumed(const util::Budget& b) {
        for (std::size_t r = 0; r < util::kNumResources; ++r)
            v[r] = b.consumed(static_cast<Resource>(r));
    }
    [[nodiscard]] double since(const util::Budget& b, Resource r) const {
        return static_cast<double>(b.consumed(r) - v[static_cast<std::size_t>(r)]);
    }
};

// ---------------------------------------------------------------------------
// Inputs and their known answers

struct McExpect {
    bool satisfied;
    std::size_t regions;
    std::size_t missing;
};

struct Input {
    std::string name;
    std::string g_text;
    int expected_added = -1;        ///< Table 1 "added signals"; -1 = not pinned
    std::optional<McExpect> mc;     ///< Def-18 verdict triple for the wide nets
};

/// Verdict triples of the wide nets, for the explicit ops and the
/// symbolic diagnostic alike, so both engines are held to one answer.
/// Rows from EXPERIMENTS.md "Explicit vs symbolic MC";
/// par:ring5,ring5,ring5 was measured on both engines.
const std::map<std::string, McExpect>& wide_expected() {
    static const std::map<std::string, McExpect> table = {
        {"par:ring3,ring3,seq3", {false, 22, 6}},
        {"par:ring4,ring4,ring4", {true, 30, 0}},
        {"par:ring3,ring3,ring3,seq2", {false, 28, 4}},
        {"par:ring5,ring5,ring5", {true, 36, 0}},
        {"par:ring4,ring4,ring4,pipe8", {true, 46, 0}},
    };
    return table;
}

enum class Kind { Synthesis, Explicit };

struct Workload {
    std::string name;
    Kind kind;
    bool capped; ///< gen::DiffOptions default caps on every op
    std::vector<std::string> recipes; ///< the wide workloads' nets
    /// Seconds one pass over the inputs took when the benchmark was
    /// defined (4-core x86-64 container, pool width 1). A run makes
    /// round(seconds / nominal_pass_s) whole passes, so every run of a
    /// workload times the same multiset of ops and its percentiles keep
    /// one meaning across commits. gen_csc's is per draw (kGenDraws).
    double nominal_pass_s;
};

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> all = {
        {"paper_table1", Kind::Synthesis, false, {}, 0.17},
        {"gen_csc", Kind::Synthesis, true, {}, 0},
        {"wide_explicit", Kind::Explicit, false,
         {"par:ring3,ring3,seq3", "par:ring4,ring4,ring4", "par:ring3,ring3,ring3,seq2",
          "par:ring5,ring5,ring5", "par:ring4,ring4,ring4,pipe8"},
         2.2},
    };
    return all;
}

/// The net on which the traced wide_explicit run also times the symbolic
/// engine (mc::check_stg and the reach fixpoint), the only place bdd
/// runs. A workload of symbolic ops was tried and dropped: its BDD-heavy
/// ops swung ~35% between runs with the phases of the shared host.
/// Symbolic MC on the larger nets takes 4-54 s.
constexpr const char* kSymbolicNet = "par:ring3,ring3,seq3";

/// gen_csc's draws: the first kGenCount specs of
/// random_recipe(derive_seed(draw, i)). Per-draw cost varies ~50x
/// between draws, so a run uses one fixed, measured draw and --seed only
/// orders it. Both draws below hold direct syntheses, insertions, and
/// budget exhaustions in sg and synth. Draw 12 is the baseline; draw 20
/// is held out, for confirming a gain measured on 12.
struct GenDraw {
    std::uint64_t seed;
    double nominal_pass_s; ///< as Workload::nominal_pass_s
};
constexpr GenDraw kGenDraws[] = {{12, 2.4}, {20, 1.05}};
/// Odd, like the other workloads' input counts, so that the median op of
/// a run sits inside one input's samples rather than on the edge between
/// two inputs (with 24 specs, verdict_ms_p50 spread 0.12-0.28 over sets
/// of ten runs).
constexpr std::size_t kGenCount = 25;

/// Splitmix64 step, for the seed-driven pass order.
std::uint64_t mix(std::uint64_t& state) {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

template <class T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
    std::uint64_t state = seed;
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[mix(state) % i]);
}

Input from_recipe(const std::string& text) {
    const auto recipe = gen::Recipe::parse(text);
    if (!recipe) throw SpecError("bad recipe " + text);
    Input in{text, stg::write_g(gen::build(*recipe)), -1, std::nullopt};
    if (const auto it = wide_expected().find(text); it != wide_expected().end()) in.mc = it->second;
    return in;
}

/// The workload's inputs for `seed`: the same seed gives the same .g
/// texts in the same order. The library only ever sees the texts.
std::vector<Input> make_inputs(const Workload& w, std::uint64_t seed, std::uint64_t draw_seed) {
    std::vector<Input> inputs;
    if (w.name == "paper_table1") {
        for (const auto& e : bench::table1_suite())
            inputs.push_back({e.name, e.g_text, e.paper_added, std::nullopt});
    } else if (w.name == "gen_csc") {
        for (std::size_t i = 0; i < kGenCount; ++i)
            inputs.push_back(
                from_recipe(gen::random_recipe(gen::derive_seed(draw_seed, i)).to_string()));
    } else {
        for (const auto& r : w.recipes) inputs.push_back(from_recipe(r));
    }
    shuffle(inputs, seed);
    return inputs;
}

// ---------------------------------------------------------------------------
// One op

enum class Verdict { Implemented, Impossible, McDecided, Unknown, Wrong };

struct OpResult {
    Verdict verdict = Verdict::Wrong;
    std::string detail; ///< unknown: the exhausted stage path; wrong: why
    std::size_t literals = 0;
    std::size_t inserted = 0; ///< implemented: state signals inserted
};

OpResult unknown(const util::Exhaustion& why) { return {Verdict::Unknown, why.stage}; }
OpResult wrong(std::string why) { return {Verdict::Wrong, std::move(why)}; }

/// An input with a known answer may not end unknown: an exhaustion there
/// would skip the very check the input is pinned for.
OpResult hold_to_answer(const Input& in, OpResult r) {
    if (r.verdict != Verdict::Unknown || (in.expected_added < 0 && !in.mc)) return r;
    const std::string known =
        in.expected_added >= 0
            ? "+" + std::to_string(in.expected_added)
            : std::string(in.mc->satisfied ? "(MC, " : "(no MC, ") +
                  std::to_string(in.mc->regions) + " regions, " +
                  std::to_string(in.mc->missing) + " missing)";
    return wrong(in.name + ": exhausted at " + r.detail + ", known answer is " + known);
}

/// gen::DiffOptions' default caps, as one deterministic per-spec budget.
util::Budget capped_budget() {
    util::Budget b;
    b.cap(Resource::States, 1u << 15)
        .cap(Resource::Steps, 1u << 19)
        .cap(Resource::Conflicts, 1u << 14)
        .cap(Resource::Attempts, 128);
    return b;
}

synth::SynthOptions synth_options(bool capped) {
    synth::SynthOptions o; // Eager spec engine, C-implementation, no built-in verify
    if (capped) {
        o.max_inserted_signals = 4;
        o.max_search_nodes = 24;
    }
    return o;
}

OpResult check_triple(const Input& in, bool satisfied, std::size_t regions, std::size_t missing) {
    if (!in.mc) return wrong("no expected verdict for " + in.name);
    if (satisfied != in.mc->satisfied || regions != in.mc->regions || missing != in.mc->missing)
        return wrong(in.name + ": got (" + (satisfied ? "MC" : "no MC") + ", " +
                     std::to_string(regions) + " regions, " + std::to_string(missing) +
                     " missing)");
    return {Verdict::McDecided};
}

stg::Stg parse(const Input& in, Tracer* tr, std::size_t req) {
    SpanScope s(tr, "stg.read_g", req);
    return stg::read_g(in.g_text);
}

/// The token-game unfolding, with gen_csc's 2^11 spec-state cap.
util::Outcome<sg::StateGraph> unfold(const stg::Stg& net, bool capped, util::Budget& budget,
                                     Tracer* tr, std::size_t req, Ledger& led) {
    Consumed c0(budget);
    auto sgo = [&] {
        SpanScope s(tr, "sg.build_state_graph", req);
        sg::FromStgOptions o;
        if (capped) o.max_states = 1u << 11;
        o.budget = &budget;
        return sg::build_state_graph_outcome(net, o);
    }();
    led["sg.states"] += c0.since(budget, Resource::States);
    if (sgo.is_complete()) led["sg.edges"] += static_cast<double>(sgo.value().num_arcs());
    return sgo;
}

OpResult synthesis_op(const Input& in, bool capped, Tracer* tr, std::size_t req, Ledger& led) {
    util::Budget budget = capped ? capped_budget() : util::Budget{};
    const stg::Stg net = parse(in, tr, req);
    const auto sgo = unfold(net, capped, budget, tr, req, led);
    if (!sgo.is_complete()) return unknown(sgo.why());
    const sg::StateGraph& graph = sgo.value();

    Consumed c1(budget);
    std::optional<util::Outcome<synth::SynthesisResult>> so;
    bool impossible = false;
    {
        SpanScope s(tr, "synth.synthesize", req);
        try {
            so.emplace(synth::synthesize_outcome(graph, synth_options(capped), &budget));
        } catch (const SynthesisError&) {
            impossible = true;
        }
    }
    led["synth.steps"] += c1.since(budget, Resource::Steps);
    led["synth.attempts"] += c1.since(budget, Resource::Attempts);
    led["sat.conflicts"] += c1.since(budget, Resource::Conflicts);
    if (impossible) {
        if (in.expected_added >= 0) return wrong(in.name + ": synthesis reported impossible");
        return {Verdict::Impossible};
    }
    if (!so->is_complete()) return unknown(so->why());
    const synth::SynthesisResult& res = so->value();
    led["synth.inserted_signals"] += static_cast<double>(res.inserted.size());
    if (in.expected_added >= 0 &&
        res.inserted.size() != static_cast<std::size_t>(in.expected_added))
        return wrong(in.name + ": inserted " + std::to_string(res.inserted.size()) +
                     " signals, Table 1 says " + std::to_string(in.expected_added));
    if (!res.mc.satisfied()) return wrong(in.name + ": unsatisfied MC report");

    Consumed c2(budget);
    const verify::VerifyResult vr = [&] {
        SpanScope s(tr, "verify.verify_speed_independence", req);
        verify::VerifyOptions vo;
        if (capped) vo.max_states = 1u << 14;
        vo.budget = &budget;
        return verify::verify_speed_independence(res.netlist, res.graph, vo);
    }();
    led["verify.states"] += c2.since(budget, Resource::States);
    led["verify.steps"] += c2.since(budget, Resource::Steps);
    switch (vr.verdict()) {
    case verify::HazardVerdict::Clean: break;
    case verify::HazardVerdict::Hazard:
        // Theorem 3: an MC netlist must be hazard-free.
        return wrong(in.name + ": verifier found a hazard on an MC netlist");
    case verify::HazardVerdict::Unknown:
        return unknown(vr.exhaustion ? *vr.exhaustion
                                     : util::Exhaustion{"verify.explore", Resource::States,
                                                        vr.states_explored, 0});
    }

    {
        SpanScope s(tr, "mc.certificate", req);
        const sg::RegionAnalysis ra(res.graph);
        const auto check = mc::check_certificate(res.graph, mc::make_certificate(ra, res.mc));
        if (!check.ok) return wrong(in.name + ": certificate rejected: " + check.reason);
    }
    const auto stats = res.netlist.stats();
    led["netlist.gates"] += static_cast<double>(res.netlist.num_gates());
    led["netlist.literals"] += static_cast<double>(stats.literals);
    return {Verdict::Implemented, "", stats.literals, res.inserted.size()};
}

OpResult explicit_op(const Input& in, Tracer* tr, std::size_t req, Ledger& led) {
    util::Budget budget;
    const stg::Stg net = parse(in, tr, req);
    const auto sgo = unfold(net, false, budget, tr, req, led);
    if (!sgo.is_complete()) return unknown(sgo.why());
    const sg::StateGraph& graph = sgo.value();

    std::optional<sg::RegionAnalysis> ra;
    {
        SpanScope s(tr, "sg.region_analysis", req);
        ra.emplace(graph);
    }
    Consumed c1(budget);
    auto mco = [&] {
        SpanScope s(tr, "mc.check_requirement", req);
        return mc::check_requirement_outcome(*ra, {}, &budget);
    }();
    led["mc.steps"] += c1.since(budget, Resource::Steps);
    if (!mco.is_complete()) return unknown(mco.why());
    const mc::McReport& rep = mco.value();
    led["mc.regions"] += static_cast<double>(rep.regions.size());
    led["mc.missing"] += static_cast<double>(rep.violation_count());
    return check_triple(in, rep.satisfied(), rep.regions.size(), rep.violation_count());
}

/// Runs one op, folding every foreign failure into a Wrong verdict. The
/// op span encloses the whole call, destructors of its results included.
OpResult run_op(const Workload& w, const Input& in, Tracer* tr, std::size_t req, Ledger& led) {
    SpanScope op(tr, "op", req);
    try {
        switch (w.kind) {
        case Kind::Synthesis: return hold_to_answer(in, synthesis_op(in, w.capped, tr, req, led));
        case Kind::Explicit: return hold_to_answer(in, explicit_op(in, tr, req, led));
        }
    } catch (const util::BudgetExhausted& e) {
        return hold_to_answer(in, unknown(e.why()));
    } catch (const std::exception& e) {
        return wrong(in.name + ": threw: " + e.what());
    }
    return wrong("unreachable");
}

/// The symbolic engine on kSymbolicNet: mc::check_stg(Symbolic), held
/// to the explicit engine's verdict triple, then the reach fixpoint alone.
OpResult symbolic_diagnostic(const Input& in, Tracer* tr, std::size_t req, Ledger& led) {
    const stg::Stg net = stg::read_g(in.g_text);
    util::Budget budget;
    const mc::StgMcResult r = [&] {
        SpanScope s(tr, "mc.check_stg_symbolic", req);
        return mc::check_stg(net, mc::Engine::Symbolic, {}, &budget);
    }();
    led["bdd.nodes"] += static_cast<double>(budget.consumed(Resource::BddNodes));
    if (!r.complete()) return hold_to_answer(in, unknown(*r.exhaustion));
    {
        util::Budget reach_budget;
        SpanScope s(tr, "bdd.symbolic_reachability", req);
        (void)bdd::symbolic_reachability(net, &reach_budget);
    }
    return check_triple(in, r.satisfied, r.regions, r.missing);
}

/// Diagnostic calls of the traced run, made outside the op span: the
/// synthesis root round alone, and the symbolic engine on kSymbolicNet.
/// Only a symbolic verdict other than the known triple is returned.
std::optional<OpResult> run_diagnostics(const Workload& w, const Input& in, Tracer* tr,
                                        std::size_t req, Ledger& led) {
    try {
        if (w.kind == Kind::Explicit) {
            if (in.name != kSymbolicNet) return std::nullopt;
            OpResult r = symbolic_diagnostic(in, tr, req, led);
            if (r.verdict != Verdict::McDecided) return r;
            return std::nullopt;
        }
        const stg::Stg net = stg::read_g(in.g_text);
        util::Budget budget = w.capped ? capped_budget() : util::Budget{};
        Ledger ignored;
        const auto sgo = unfold(net, w.capped, budget, nullptr, req, ignored);
        if (!sgo.is_complete()) return std::nullopt;
        const sg::RegionAnalysis ra(sgo.value());
        std::vector<RegionId> violated;
        for (const auto& r : mc::check_requirement(ra).regions)
            if (!r.ok()) violated.push_back(r.region);
        if (violated.empty()) return std::nullopt;
        synth::InsertionOptions io;
        if (w.capped) io.budget = &budget;
        SpanScope s(tr, "synth.insert_root", req);
        (void)synth::insert_signal_candidates(ra, violated, "csc0", 3, io);
    } catch (const std::exception& e) {
        if (w.kind == Kind::Explicit)
            return wrong(in.name + ": symbolic engine threw: " + e.what());
        // The op itself already judged this input; a failed root-round
        // diagnostic only loses its span.
    }
    return std::nullopt;
}

// ---------------------------------------------------------------------------
// Host-speed reference

/// A fixed kernel owned by the benchmark, never library code, so no
/// library change can move it: build an 8K-node std::map of
/// pseudo-random keys and walk it. Its time tracks the speed the shared
/// host lends this process: other tenants slow whole runs by up to ~50%,
/// in CPU time as much as in wall time, so it is the speed of the cores
/// that changes, not the share of them this process gets.
double reference_ms() {
    const auto a = Clock::now();
    std::uint64_t state = 42;
    std::map<std::uint64_t, std::uint32_t> m;
    for (std::uint32_t i = 0; i < (1u << 13); ++i) m.emplace(mix(state), i);
    std::uint64_t sum = 0;
    for (const auto& [k, v] : m) sum += k & v;
    static volatile std::uint64_t sink;
    sink = sum; // keeps the walk from being optimized away
    return seconds_between(a, Clock::now()) * 1e3;
}

/// The median of five timings of reference_ms() made on a thread of
/// their own, after an untimed warm-up. The thread's allocations come
/// from a separate malloc arena, so the heap and cache state a workload
/// leaves behind cannot move the probe (timed on the workload's own
/// thread, it read 1.3-1.5 ms after BDD passes against ~2 ms elsewhere).
double probe_host_ms() {
    std::vector<double> out;
    std::exception_ptr failure;
    std::thread([&] {
        try {
            (void)reference_ms();
            for (int i = 0; i < 5; ++i) out.push_back(reference_ms());
        } catch (...) {
            failure = std::current_exception();
        }
    }).join();
    if (failure) std::rethrow_exception(failure);
    return quantile(out, 0.5);
}

/// reference_ms() on this host when it was not slowed down. The run's
/// timings are reported scaled by kReferenceNominalMs / (the median of
/// the run's probes), i.e. in the units of an uncontended host. One
/// factor for the whole run: scaling each op by the probe just before it
/// let the op order bias the factor, and two sets of ten gen_csc runs
/// then disagreed by 21% on verdict_ms_tail.
constexpr double kReferenceNominalMs = 2.0;

/// A timed op starts with a probe once the last one is this old, so the
/// probes sample the whole run evenly in time.
constexpr double kProbeEvery_s = 0.1;

// ---------------------------------------------------------------------------
// The closed loop

struct Tally {
    std::size_t attempted = 0, implemented = 0, impossible = 0, decided = 0, unknown = 0,
                wrong = 0;
    std::size_t with_insertion = 0; ///< implemented ops that inserted a state signal
    std::size_t literals = 0;
    std::map<std::string, std::size_t> unknown_by_stage; ///< full Exhaustion::stage paths
    std::vector<std::string> wrong_details;
    std::vector<std::vector<double>> op_ms; ///< [pass][op]
    std::vector<double> reference_ms;       ///< every probe_host_ms() of the run
    double wall_s = 0;
    std::size_t passes = 0;

    void add(const OpResult& r) {
        ++attempted;
        switch (r.verdict) {
        case Verdict::Implemented:
            ++implemented;
            literals += r.literals;
            if (r.inserted > 0) ++with_insertion;
            break;
        case Verdict::Impossible: ++impossible; break;
        case Verdict::McDecided: ++decided; break;
        case Verdict::Unknown:
            ++unknown;
            ++unknown_by_stage[r.detail];
            break;
        case Verdict::Wrong:
            ++wrong;
            if (wrong_details.size() < 8) wrong_details.push_back(r.detail);
            break;
        }
    }

    /// Folds another run's verdict counts in (latencies stay separate).
    void absorb(const Tally& o) {
        attempted += o.attempted;
        implemented += o.implemented;
        impossible += o.impossible;
        decided += o.decided;
        unknown += o.unknown;
        wrong += o.wrong;
        with_insertion += o.with_insertion;
        literals += o.literals;
        for (const auto& [stage, n] : o.unknown_by_stage) unknown_by_stage[stage] += n;
        wrong_details.insert(wrong_details.end(), o.wrong_details.begin(), o.wrong_details.end());
        wall_s += o.wall_s;
        passes += o.passes;
    }

    [[nodiscard]] double mean_ms() const {
        double sum = 0;
        for (const auto& pass : op_ms)
            for (const double ms : pass) sum += ms;
        return sum / static_cast<double>(attempted);
    }
};

/// `passes` whole passes over `inputs`, each op timed on its own. A
/// pass never starts once `limit_s` has elapsed, so a much slower build
/// still ends in time (the report shows the passes actually made).
Tally run_loop(const Workload& w, const std::vector<Input>& inputs, std::size_t passes,
               double limit_s, Tracer* tr, Ledger& led, bool diagnostics) {
    Tally t;
    const auto start = Clock::now();
    auto probed = start;
    std::size_t req = 0;
    while (t.passes < passes && (t.passes == 0 || seconds_between(start, Clock::now()) < limit_s)) {
        auto& pass_ms = t.op_ms.emplace_back();
        for (std::size_t k = 0; k < inputs.size(); ++k) {
            if (t.reference_ms.empty() || seconds_between(probed, Clock::now()) >= kProbeEvery_s) {
                t.reference_ms.push_back(probe_host_ms());
                probed = Clock::now();
            }
            const auto a = Clock::now();
            const OpResult r = run_op(w, inputs[k], tr, req, led);
            const double ms = seconds_between(a, Clock::now()) * 1e3;
            t.add(r);
            pass_ms.push_back(ms);
            if (diagnostics)
                if (const auto bad = run_diagnostics(w, inputs[k], tr, req, led)) {
                    ++t.wrong;
                    t.wrong_details.push_back(bad->detail);
                }
            ++req;
        }
        ++t.passes;
    }
    t.wall_s = seconds_between(start, Clock::now());
    return t;
}

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest latency. With fewer than 21 samples that would sit below the
/// median, so the maximum is reported instead. Returns {value, percentile}.
std::pair<double, double> tail_latency(std::vector<double> ms) {
    std::sort(ms.begin(), ms.end());
    const std::size_t i = ms.size() >= 21 ? ms.size() - 11 : ms.size() - 1;
    return {ms[i], 100.0 * static_cast<double>(i) / static_cast<double>(ms.size() - 1)};
}

/// The end-to-end timings of a run, taken from every op sample. A pass
/// time's median, not its mean, sets the throughput, so neither an
/// interference burst nor a speed-up on a minority of passes moves it.
struct Timings {
    double verdicts_per_s; ///< ops per pass / the median pass time
    double p50_ms;         ///< median op latency
    double tail_ms;        ///< tail_latency() of the op latencies
    double tail_pct;       ///< the percentile tail_ms sits at
};

Timings timings(const Tally& t) {
    std::vector<double> ops, pass_s;
    for (const auto& pass : t.op_ms) {
        double sum = 0;
        for (const double ms : pass) {
            ops.push_back(ms);
            sum += ms;
        }
        pass_s.push_back(sum / 1e3);
    }
    const auto [tail, pct] = tail_latency(ops);
    return {static_cast<double>(t.op_ms.front().size()) / quantile(pass_s, 0.5),
            quantile(ops, 0.5), tail, pct};
}

/// The process's peak resident set, in MB. Linux carries ru_maxrss over
/// execve from the parent's image (a Python launcher's ~14 MB would mask
/// every smaller workload), so VmHWM, the peak of this image alone, is
/// read first.
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

// ---------------------------------------------------------------------------
// Output

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
            continue;
        }
        out += c;
    }
    return out;
}

std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        if (i) out += ", ";
        out += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) + ", \"unit\": \"" +
               ms[i].unit + "\"}";
    }
    return out + "}";
}

/// Per-layer ledger from the traced spans: busy ms per layer span, the
/// untraced share of op wall time, all divided by the traced pass count.
std::vector<Metric> layer_metrics(const Tracer& tr, const Ledger& led, const Tally& t,
                                  double overhead_share, double* untraced_share_out) {
    const auto& spans = tr.spans();
    std::map<std::string, double> busy_ms;
    std::vector<double> child_ns(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double d = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
        busy_ms[spans[i].name] += d / 1e6;
        if (spans[i].parent >= 0) child_ns[static_cast<std::size_t>(spans[i].parent)] += d;
    }
    double op_ns = 0, op_self_ns = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name != "op") continue;
        const double d = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
        op_ns += d;
        op_self_ns += d - child_ns[i];
    }
    const double untraced = op_ns > 0 ? op_self_ns / op_ns : 0.0;
    *untraced_share_out = untraced;
    const double passes = static_cast<double>(std::max<std::size_t>(t.passes, 1));

    std::vector<Metric> out;
    const auto per_pass = [&](const std::string& name, double v, const char* unit) {
        out.push_back({name, v / passes, unit});
    };
    for (const char* span :
         {"stg.read_g", "sg.build_state_graph", "sg.region_analysis", "mc.check_requirement",
          "mc.check_stg_symbolic", "synth.synthesize", "synth.insert_root",
          "verify.verify_speed_independence", "mc.certificate", "bdd.symbolic_reachability"}) {
        const auto it = busy_ms.find(span);
        per_pass(std::string(span) + ".ms", it == busy_ms.end() ? 0.0 : it->second, "ms");
    }
    const auto count = [&](const char* key) {
        const auto it = led.find(key);
        return it == led.end() ? 0.0 : it->second;
    };
    for (const char* key :
         {"sg.states", "sg.edges", "mc.regions", "mc.missing", "mc.steps", "bdd.nodes",
          "synth.steps", "synth.attempts", "sat.conflicts", "synth.inserted_signals",
          "netlist.gates", "netlist.literals", "verify.states", "verify.steps"})
        per_pass(key, count(key), "count");
    const double attempts = count("synth.attempts");
    out.push_back({"synth.inserted_per_attempt",
                   attempts > 0 ? count("synth.inserted_signals") / attempts : 0.0, "ratio"});
    std::map<std::string, double> unknown_by_layer;
    for (const auto& [stage, n] : t.unknown_by_stage) // "synth.bnb/synth.spec" -> "synth"
        unknown_by_layer[stage.substr(0, stage.find_first_of("./"))] += static_cast<double>(n);
    for (const char* layer : {"sg", "synth", "verify", "mc"})
        per_pass(std::string("unknown.") + layer, unknown_by_layer[layer], "count");
    out.push_back({"untraced_share", untraced, "ratio"});
    out.push_back({"trace.overhead_share", overhead_share, "ratio"});
    return out;
}

void write_spans(const Tracer& tr, const std::string& path) {
    std::ofstream f(path);
    if (!f) return;
    for (const auto& s : tr.spans())
        f << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}\n";
}

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "si_bench: %s\nusage: si_bench --workload <paper_table1|gen_csc|wide_explicit>"
                 " --seed <n> --seconds <s> --trace <0|1>\n"
                 "                [--draw-seed <n>] [--spans <file>] [--commit <id>]\n",
                 why);
    std::exit(2);
}

} // namespace

int main(int argc, char** argv) {
    std::string workload_name, spans_path, commit = "unknown";
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::uint64_t draw_seed = kGenDraws[0].seed;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload") workload_name = v;
        else if (a == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds") seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace") trace = v == "1";
        else if (a == "--draw-seed") draw_seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--spans") spans_path = v;
        else if (a == "--commit") commit = v;
        else usage(("unknown option " + a).c_str());
    }
    const auto wit = std::find_if(workloads().begin(), workloads().end(),
                                  [&](const Workload& w) { return w.name == workload_name; });
    if (wit == workloads().end()) usage("unknown workload");
    if (!(seconds > 0)) usage("bad --seconds");
    const Workload& w = *wit;
    // A fixed pool width, recorded in the report. Width 4 measured no
    // faster than 1 on any workload here (the fan-outs are small), and a
    // wider pool makes every fan-out wait for the most contended core.
    util::set_num_threads(1);

    double nominal_pass_s = w.nominal_pass_s;
    if (w.name == "gen_csc") {
        const auto d = std::find_if(std::begin(kGenDraws), std::end(kGenDraws),
                                    [&](const GenDraw& g) { return g.seed == draw_seed; });
        if (d == std::end(kGenDraws)) usage("--draw-seed must be 12 or 20");
        nominal_pass_s = d->nominal_pass_s;
    }
    const auto passes_for = [&](double s) {
        return std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(s / nominal_pass_s)));
    };
    // No pass, set-up or timed, starts after these limits, so a much
    // slower build still ends in time.
    const double setup_limit_s = seconds, limit_s = 4 * seconds;

    // Set-up: build the inputs from the seed, then one untimed warm-up
    // pass; repeated, and the median reported, so set-up cost is a metric.
    constexpr std::size_t kSetups = 5;
    std::vector<double> setup_s;
    std::vector<Input> inputs;
    Ledger scratch;
    const auto setup_start = Clock::now();
    while (setup_s.size() < kSetups &&
           (setup_s.empty() || seconds_between(setup_start, Clock::now()) < setup_limit_s)) {
        const auto a = Clock::now();
        inputs = make_inputs(w, seed, draw_seed);
        for (std::size_t k = 0; k < inputs.size(); ++k)
            (void)run_op(w, inputs[k], nullptr, k, scratch);
        setup_s.push_back(seconds_between(a, Clock::now()));
    }

    Ledger led;
    Tally t;
    std::vector<Metric> metrics;
    bool coverage_ok = true;
    double tail_pct = -1;
    double reference = 0;    // median probe of the run
    std::vector<double> raw; // the four timings before host scaling
    if (!trace) {
        t = run_loop(w, inputs, passes_for(seconds), limit_s, nullptr, led, false);
        const Timings tm = timings(t);
        tail_pct = tm.tail_pct;
        reference = quantile(t.reference_ms, 0.5);
        const double host = kReferenceNominalMs / reference;
        const double decided = static_cast<double>(t.implemented + t.impossible + t.decided);
        raw = {quantile(setup_s, 0.5), tm.verdicts_per_s, tm.p50_ms, tm.tail_ms};
        metrics = {
            {"setup_s", raw[0] * host, "s"},
            {"verdicts_per_s", raw[1] / host, "1/s"},
            {"verdict_ms_p50", raw[2] * host, "ms"},
            {"verdict_ms_tail", raw[3] * host, "ms"},
            {"peak_rss_mb", peak_rss_mb(), "MB"},
            {"decided_ratio", decided / static_cast<double>(t.attempted), "ratio"},
        };
    } else {
        // Untraced and traced halves of the run; their mean op latency
        // difference is the tracing overhead.
        Ledger untraced_led;
        const Tally u = run_loop(w, inputs, passes_for(seconds / 2), limit_s / 2, nullptr,
                                 untraced_led, false);
        Tracer tr(Clock::now());
        t = run_loop(w, inputs, passes_for(seconds / 2), limit_s / 2, &tr, led, true);
        double untraced_share = 0;
        metrics = layer_metrics(tr, led, t, t.mean_ms() / u.mean_ms() - 1.0, &untraced_share);
        coverage_ok = untraced_share <= 0.05;
        if (!spans_path.empty()) write_spans(tr, spans_path);
        t.absorb(u);
    }

    const bool correct = t.wrong == 0 && coverage_ok;
    // Provenance and the verdict breakdown (the report line).
    std::string report = "{\"report\": {\"workload\": \"" + w.name + "\", \"seed\": " +
                         std::to_string(seed) + ", \"trace\": " + (trace ? "1" : "0") +
                         ", \"commit\": \"" + json_escape(commit) + "\", \"nproc\": " +
                         std::to_string(std::thread::hardware_concurrency()) +
                         ", \"pool_width\": " + std::to_string(util::num_threads()) +
                         ", \"compiler\": \"" + SI_BENCH_COMPILER + "\", \"build_type\": \"" +
                         SI_BENCH_BUILD_TYPE + "\", \"inputs\": " + std::to_string(inputs.size()) +
                         ", \"passes\": " + std::to_string(t.passes) + ", \"ops\": " +
                         std::to_string(t.attempted) + ", \"run_s\": " + num(t.wall_s) +
                         ", \"wall_verdicts_per_s\": " +
                         num(static_cast<double>(t.attempted) / t.wall_s) +
                         ", \"setups\": " + std::to_string(setup_s.size()) +
                         ", \"implemented\": " + std::to_string(t.implemented) +
                         ", \"with_insertion\": " + std::to_string(t.with_insertion) +
                         ", \"impossible\": " + std::to_string(t.impossible) +
                         ", \"mc_decided\": " + std::to_string(t.decided) +
                         ", \"unknown\": " + std::to_string(t.unknown) +
                         ", \"wrong\": " + std::to_string(t.wrong) +
                         ", \"unknown_ratio\": " +
                         num(static_cast<double>(t.unknown) / static_cast<double>(t.attempted)) +
                         ", \"failed_ratio\": " +
                         num(static_cast<double>(t.unknown + t.wrong) /
                             static_cast<double>(t.attempted)) +
                         ", \"netlist_literals_per_pass\": " +
                         num(static_cast<double>(t.literals) /
                             static_cast<double>(std::max<std::size_t>(t.passes, 1))) +
                         ", \"latency_samples\": " + std::to_string(t.attempted) +
                         (tail_pct < 0 ? "" : ", \"tail_percentile\": " + num(tail_pct)) +
                         (raw.empty() ? ""
                                      : ", \"reference_ms\": " + num(reference) +
                                            ", \"raw_setup_s\": " + num(raw[0]) +
                                            ", \"raw_verdicts_per_s\": " + num(raw[1]) +
                                            ", \"raw_verdict_ms_p50\": " + num(raw[2]) +
                                            ", \"raw_verdict_ms_tail\": " + num(raw[3])) +
                         ", \"draw_seed\": " + std::to_string(draw_seed) +
                         ", \"coverage_ok\": " + (coverage_ok ? "true" : "false") +
                         ", \"unknown_by_stage\": {";
    for (auto it = t.unknown_by_stage.begin(); it != t.unknown_by_stage.end(); ++it)
        report += (it == t.unknown_by_stage.begin() ? "\"" : ", \"") + json_escape(it->first) +
                  "\": " + std::to_string(it->second);
    report += "}, \"wrong_details\": [";
    for (std::size_t i = 0; i < t.wrong_details.size(); ++i)
        report += (i ? ", \"" : "\"") + json_escape(t.wrong_details[i]) + "\"";
    report += "]}}";
    std::printf("%s\n", report.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
                correct ? "true" : "false", t.attempted, t.wrong, metrics_json(metrics).c_str());
    return correct ? 0 : 1;
}
