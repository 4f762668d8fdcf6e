/**
 * @file
 * fa_perfbench — the repository's benchmark program.
 *
 * Runs one workload serially in this process, timing the calls into
 * each module's public functions from outside, and checks every
 * output. See README.md in this directory for the workloads, the
 * metrics and how each per-layer metric maps to an end-to-end one.
 *
 *   fa_perfbench --workload fig14|race64|mc4 --seed N --seconds S
 *                --trace 0|1 [--expected FILE] [--record FILE]
 *                [--spans FILE] [--commit SHA]
 *
 * Passes of the workload repeat until --seconds is spent (at least
 * one); every time metric is the median over passes. --trace 0 times
 * the workload as users run it. --trace 1 alternates an untraced pass
 * with a traced pass that drives the cycle loop itself (one timer
 * pair per layer per cycle), so the per-layer split and the tracing
 * overhead come from the same run.
 *
 * The last line of stdout is one JSON object:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
 * Exit status: 0 every check passed, 1 a check failed or the run
 * threw, 2 usage error or refused build.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "freeatomics/freeatomics.hh"

using namespace fa;

namespace {

using Clock = std::chrono::steady_clock;

// --- workload sizes (README.md says why each was chosen) ---------------

/** fig14 runs the campaign at a reduced machine so a pass takes a few
 * seconds and a run holds several passes. */
constexpr unsigned kFig14Cores = 8;
constexpr double kFig14Scale = 0.25;

/** race64: farace's 64-core soak job. */
constexpr std::uint64_t kRaceSoakSeed = 7;
constexpr unsigned kRaceThreads = 64;
constexpr unsigned kRaceBlocks = 2304;
constexpr unsigned kRaceCounters = 8;
constexpr std::uint64_t kRaceMinEvents = 1'000'000;
constexpr Cycle kRaceMaxCycles = 100'000'000;

/** mc4: famc -w atomic_counter --threads 4 --all-modes. */
constexpr const char *kMcWorkload = "atomic_counter";
constexpr unsigned kMcThreads = 4;
constexpr double kMcScale = 0.03;

/** Set-up of one job takes microseconds to milliseconds, too short to
 * time once: it is repeated at least kSetupMinReps times and until
 * kSetupMinSeconds are spent (at most kSetupMaxReps), and the median
 * is kept. */
constexpr int kSetupMinReps = 3;
constexpr int kSetupMaxReps = 200;
constexpr double kSetupMinSeconds = 0.005;

constexpr core::AtomicsMode kAllModes[] = {
    core::AtomicsMode::kFenced, core::AtomicsMode::kSpec,
    core::AtomicsMode::kFree, core::AtomicsMode::kFreeFwd};

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double> &v) { return quantile(v, 0.5); }

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

std::uint64_t
fnv64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** --seed is a seed index into the bench harnesses' seed
 * schedule (sweep::deriveSeed), widened to 64 bits: seed 0 is the
 * master seed `fabench fig14` uses. */
std::uint64_t
masterSeed(std::uint64_t seed)
{
    return sim::sweep::deriveSeed(0) + seed;
}

// --- spans and checks ---------------------------------------------------

/** One timed call into the library, kept in memory in a traced pass
 * and written out when the run ends. */
struct Span
{
    std::string name;
    long parent = -1;  ///< index of the enclosing span, -1 for a root
    double startS = 0.0;
    double endS = 0.0;
};

/** Times calls; records them as spans only when given a sink. */
class Timer
{
  public:
    Timer(std::vector<Span> *sink, Clock::time_point origin)
        : spans(sink), t0(origin)
    {}

    long
    open(const std::string &name, long parent)
    {
        if (!spans)
            return -1;
        spans->push_back({name, parent, seconds(Clock::now() - t0), 0.0});
        return static_cast<long>(spans->size() - 1);
    }

    void
    close(long id)
    {
        if (id >= 0)
            (*spans)[static_cast<std::size_t>(id)].endS =
                seconds(Clock::now() - t0);
    }

    /** Run f() and return its host seconds. */
    template <class F>
    double
    time(const std::string &name, long parent, F &&f)
    {
        long id = open(name, parent);
        auto a = Clock::now();
        f();
        double s = seconds(Clock::now() - a);
        close(id);
        return s;
    }

  private:
    std::vector<Span> *spans;
    Clock::time_point t0;
};

struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::cerr << "fa_perfbench: CHECK FAILED: " << what << "\n";
        }
    }
};

/** Exact outputs of one pass, by key ("barnes/fenced/cycles", ...). */
using Facts = std::map<std::string, std::uint64_t>;

/** Host time spent in each layer's tick over one traced cycle loop. */
struct TickTotals
{
    double memS = 0.0;
    double coreS = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t coreTicks = 0;
};

/** One pass over a workload. */
struct Pass
{
    double wallS = 0.0;   ///< timed library calls after set-up
    double setupS = 0.0;  ///< summed per-job set-up (median of reps)
    std::vector<double> jobS;
    std::uint64_t simCycles = 0;
    std::uint64_t simInsts = 0;
    double runS = 0.0;
    double normFreeFwd = 0.0;
    Facts facts;
    /** Per-layer values, filled in a traced pass only. */
    std::map<std::string, double> layer;
};

// --- the traced cycle loop ----------------------------------------------

/**
 * System::run's loop driven from outside: each cycle ticks the memory
 * system, then every core, with one timer pair per layer. It keeps
 * run()'s cycle limit, halt test and global-progress window, so a
 * traced run simulates exactly the cycles an untraced one does.
 */
sim::RunOutcome
runTraced(sim::System &sys, Cycle max_cycles, TickTotals &tt)
{
    std::vector<core::Core *> cores;
    for (unsigned i = 0; i < sys.numCores(); ++i)
        cores.push_back(&sys.coreAt(i));
    mem::MemSystem &ms = sys.mem();
    const Cycle window = sys.config().progressWindow;

    sim::RunOutcome out;
    Cycle now = sys.cycles();
    Cycle last_progress = now;
    while (now < max_cycles) {
        auto t0 = Clock::now();
        ms.tick(now);
        auto t1 = Clock::now();
        for (core::Core *c : cores)
            c->tick(now);
        auto t2 = Clock::now();
        tt.memS += seconds(t1 - t0);
        tt.coreS += seconds(t2 - t1);
        ++tt.cycles;
        tt.coreTicks += cores.size();
        ++now;
        if (sys.allHalted()) {
            out.finished = true;
            out.cycles = now;
            return out;
        }
        for (const core::Core *c : cores) {
            if (c->halted() || c->lastCommitCycle() > last_progress)
                last_progress =
                    std::max(last_progress, c->lastCommitCycle());
        }
        if (now - last_progress > window) {
            out.cycles = now;
            out.failure = "no core committed for " +
                std::to_string(window) + " cycles";
            return out;
        }
    }
    out.cycles = now;
    out.failure = "cycle limit reached";
    return out;
}

/** Set up repeatedly and return the median set-up seconds. Each rep
 * calls teardown() untimed, then build() and init(), both timed. The
 * last rep's objects are the ones the pass uses. */
template <class Teardown, class Build, class Init>
double
repeatedSetup(Timer &tm, long parent, const char *init_name,
              double &build_s, double &init_s, Teardown &&teardown,
              Build &&build, Init &&init)
{
    std::vector<double> b, i, total;
    double spent = 0.0;
    while (static_cast<int>(total.size()) < kSetupMinReps ||
           (spent < kSetupMinSeconds &&
            static_cast<int>(total.size()) < kSetupMaxReps)) {
        teardown();
        b.push_back(tm.time("workloads.build", parent, build));
        i.push_back(tm.time(init_name, parent, init));
        total.push_back(b.back() + i.back());
        spent += total.back();
    }
    build_s += median(b);
    init_s += median(i);
    return median(total);
}

/** Per-layer counters of the core and memory models, summed over the
 * pass's simulations. */
void
addSimLayers(Pass &p, const sim::RunResult &r)
{
    auto add = [&](const char *k, std::uint64_t v) {
        p.layer[k] += static_cast<double>(v);
    };
    add("core.committed_insts", r.core.committedInsts);
    add("core.active_cycles", r.core.activeCycles);
    add("core.issued_uops", r.core.issuedUops);
    add("core.fetched_insts", r.core.fetchedInsts);
    add("core.squashed_insts", r.core.squashedInsts);
    add("core.dispatch_stall_aq_cycles", r.core.dispatchStallAqCycles);
    add("core.atomic_drain_sb_cycles", r.core.atomicDrainSbCycles);
    add("core.watchdog_timeouts", r.core.watchdogTimeouts);
    add("mem.transactions", r.mem.transactions);
    add("mem.l1_hits", r.mem.l1Hits);
    add("mem.l1_misses", r.mem.l1Misses);
    add("mem.network_msgs", r.mem.networkMsgs);
    add("mem.inv_blocked_retries", r.mem.invBlockedRetries);
    add("mem.fill_blocked_on_lock", r.mem.fillBlockedOnLock);
}

/** Derived per-layer values, once the pass's sums are in. */
void
finishLayers(Pass &p, const TickTotals &tt)
{
    auto &l = p.layer;
    l["core.tick_s"] = tt.coreS;
    l["core.ns_per_core_tick"] =
        ratio(tt.coreS * 1e9, static_cast<double>(tt.coreTicks));
    l["core.ipc"] = ratio(l["core.committed_insts"],
                          l["core.active_cycles"]);
    l["core.commit_per_fetch"] = ratio(l["core.committed_insts"],
                                       l["core.fetched_insts"]);
    l["mem.tick_s"] = tt.memS;
    l["mem.ns_per_tick"] =
        ratio(tt.memS * 1e9, static_cast<double>(tt.cycles));
    l["mem.l1_hit_ratio"] = ratio(
        l["mem.l1_hits"], l["mem.l1_hits"] + l["mem.l1_misses"]);
    l["analysis.race.kevents_per_s"] = ratio(
        l["analysis.trace.events"] / 1e3, l["analysis.race.analyze_s"]);
    l["analysis.mc.kstates_per_s"] = ratio(
        l["analysis.mc.states"] / 1e3, l["analysis.mc.explore_s"]);
}

/** The RunResult's JSON with its host-dependent fields cleared. */
std::uint64_t
resultDigest(sim::RunResult r)
{
    r.hostPhaseNs.clear();
    r.hostWallSec = 0.0;
    r.hostSampledCycles = 0;
    r.hostProfilePeriod = 0;
    std::ostringstream os;
    r.toJson(os);
    return fnv64(os.str());
}

// --- workloads ----------------------------------------------------------

/** fig14: the campaign's 104 jobs (26 apps x 4 modes), serially. */
Pass
runFig14(std::uint64_t seed, bool traced, Timer &tm, long pass_span,
         Checks &chk)
{
    sim::sweep::CampaignCfg cfg;
    cfg.cores = kFig14Cores;
    cfg.scale = kFig14Scale;
    cfg.seeds = 1;
    std::vector<sim::sweep::SweepJob> jobs =
        sim::sweep::findCampaign("fig14")->jobs(cfg);

    Pass p;
    TickTotals tt;
    double build_s = 0, init_s = 0, run_s = 0, collect_s = 0;
    std::map<std::string, double> fenced, freefwd;
    const std::uint64_t mseed = masterSeed(seed);
    for (const sim::sweep::SweepJob &job : jobs) {
        const wl::Workload *w = wl::findWorkload(job.workload);
        sim::MachineConfig machine = job.machine;
        machine.core.mode = job.mode;
        machine.cores = job.cores;
        std::string key = job.workload + "/" + job.label;
        long js = tm.open(key, pass_span);

        std::vector<isa::Program> progs;
        std::unique_ptr<sim::System> sys;
        p.setupS += repeatedSetup(
            tm, js, "sim.system_init", build_s, init_s,
            [&] { sys.reset(); },
            [&] {
                progs = wl::buildPrograms(*w, job.cores, job.scale);
            },
            [&] {
                sys = std::make_unique<sim::System>(machine, progs,
                                                    mseed);
                if (w->init)
                    sys->initMemory(w->init(job.cores, job.scale));
            });

        sim::RunOutcome out;
        double r = tm.time("sim.run", js, [&] {
            out = traced ? runTraced(*sys, job.maxCycles, tt)
                         : sys->run(job.maxCycles);
        });
        sim::RunResult res;
        double c = tm.time("sim.collect", js, [&] {
            res = sim::collectRunResult(*sys, out);
        });
        tm.close(js);

        chk.expect(res.finished && res.tsoOk(),
                   key + " finished: " + res.failure);
        if (w->verify) {
            std::string err = w->verify(*sys, job.cores, job.scale);
            chk.expect(err.empty(), key + " verify: " + err);
        }
        run_s += r;
        collect_s += c;
        p.jobS.push_back(r + c);
        p.simCycles += res.cycles;
        p.simInsts += res.core.committedInsts;
        p.facts[key + "/cycles"] = res.cycles;
        p.facts[key + "/insts"] = res.core.committedInsts;
        p.facts[key + "/fnv"] = resultDigest(res);
        if (job.mode == core::AtomicsMode::kFenced)
            fenced[job.workload] = static_cast<double>(res.cycles);
        if (job.mode == core::AtomicsMode::kFreeFwd)
            freefwd[job.workload] = static_cast<double>(res.cycles);
        if (traced)
            addSimLayers(p, res);
    }
    double log_sum = 0.0;
    for (const auto &[app, cyc] : fenced)
        log_sum += std::log(ratio(freefwd[app], cyc));
    p.normFreeFwd = std::exp(log_sum / static_cast<double>(fenced.size()));
    p.runS = run_s;
    p.wallS = run_s + collect_s;
    if (traced) {
        p.layer["workloads.build_s"] = build_s;
        p.layer["sim.system_init_s"] = init_s;
        p.layer["sim.run_s"] = run_s;
        p.layer["sim.collect_s"] = collect_s;
        finishLayers(p, tt);
    }
    return p;
}

/** race64: record soak seed 7 on 64 cores, then the happens-before
 * analysis and its report. */
Pass
runRace64(std::uint64_t seed, bool traced, Timer &tm, long pass_span,
          Checks &chk)
{
    const core::AtomicsMode mode = core::AtomicsMode::kFreeFwd;
    const std::uint64_t mseed = masterSeed(seed);
    Pass p;
    TickTotals tt;
    double build_s = 0, init_s = 0;

    chaos::SoakCase soak;
    std::unique_ptr<sim::System> sys;
    p.setupS = repeatedSetup(
        tm, pass_span, "sim.system_init", build_s, init_s,
        [&] { sys.reset(); },
        [&] {
            chaos::SoakSpec spec =
                chaos::makeSoakSpec(kRaceSoakSeed, mode, "none");
            spec.threads = kRaceThreads;
            spec.blocks = kRaceBlocks;
            spec.counters = kRaceCounters;
            soak = chaos::buildSoakCase(spec);
        },
        [&] {
            auto machine = sim::MachineBuilder::preset("tiny", kRaceThreads)
                               .mode(mode)
                               .recordMemTrace(true)
                               .build();
            sys = std::make_unique<sim::System>(machine, soak.programs,
                                                mseed);
            sys->initMemory({});
        });

    sim::RunOutcome out;
    double run_s = tm.time("sim.run", pass_span, [&] {
        out = traced ? runTraced(*sys, kRaceMaxCycles, tt)
                     : sys->run(kRaceMaxCycles);
    });
    sim::RunResult res;
    double collect_s = tm.time("sim.collect", pass_span, [&] {
        res = sim::collectRunResult(*sys, out);
    });
    chk.expect(res.finished && res.tsoOk(),
               "race64 recording run: " + res.failure);
    for (unsigned i = 0; i < kRaceCounters; ++i) {
        std::int64_t got = sys->readWord(wl::kDataBase + i * kLineBytes);
        chk.expect(got == soak.expectedCounters[i],
                   strfmt("race64 counter %u = %lld, expected %lld", i,
                          static_cast<long long>(got),
                          static_cast<long long>(
                              soak.expectedCounters[i])));
    }

    const analysis::TraceRecorder *tr = sys->trace();
    analysis::race::RaceOpts ropts;
    ropts.mode = mode;
    ropts.replayCmd = strfmt(
        "farace --soak-seed %llu --threads %u --blocks %u --counters %u "
        "--seed %llu -m freefwd",
        static_cast<unsigned long long>(kRaceSoakSeed), kRaceThreads,
        kRaceBlocks, kRaceCounters,
        static_cast<unsigned long long>(mseed));
    analysis::race::RaceReport rep;
    double analyze_s = tm.time("analysis.race.analyze", pass_span, [&] {
        rep = analysis::race::analyze(tr->events(), tr->syncEvents(),
                                      ropts);
    });
    std::ostringstream report;
    double report_s = tm.time("analysis.race.report", pass_span, [&] {
        analysis::race::writeReport(report, "soak7x64", rep, nullptr);
    });

    chk.expect(rep.memEvents >= kRaceMinEvents,
               strfmt("race64 trace holds %llu events, below %llu",
                      static_cast<unsigned long long>(rep.memEvents),
                      static_cast<unsigned long long>(kRaceMinEvents)));
    chk.expect(rep.hardwareClean(), "race64 gate: atomicity findings");

    p.runS = run_s;
    p.wallS = run_s + collect_s + analyze_s + report_s;
    p.jobS.push_back(p.wallS);
    p.simCycles = res.cycles;
    p.simInsts = res.core.committedInsts;
    Facts &f = p.facts;
    f["cycles"] = res.cycles;
    f["insts"] = res.core.committedInsts;
    f["result_fnv"] = resultDigest(res);
    f["tso_events_checked"] = res.tsoEventsChecked;
    f["mem_events"] = rep.memEvents;
    f["sync_events"] = rep.syncEvents;
    f["lock_windows"] = rep.lockWindows;
    f["open_windows"] = rep.openWindows;
    f["torn_records"] = rep.tornRecords;
    f["findings"] = rep.findings.size();
    f["races"] = rep.races;
    f["atomicity"] = rep.atomicityViolations;
    f["reorderings"] = rep.reorderings;
    f["gate_clean"] = rep.hardwareClean() ? 1 : 0;
    f["report_fnv"] = fnv64(report.str());
    if (traced) {
        addSimLayers(p, res);
        auto &l = p.layer;
        l["workloads.build_s"] = build_s;
        l["sim.system_init_s"] = init_s;
        l["sim.run_s"] = run_s;
        l["sim.collect_s"] = collect_s;
        l["analysis.trace.events"] =
            static_cast<double>(tr->events().size());
        l["analysis.trace.sync_events"] =
            static_cast<double>(tr->syncEvents().size());
        l["analysis.race.analyze_s"] = analyze_s;
        l["analysis.race.findings"] =
            static_cast<double>(rep.findings.size());
        l["analysis.race.report_s"] = report_s;
        finishLayers(p, tt);
    }
    return p;
}

/** mc4: exhaustive exploration of atomic_counter x4 in every mode. */
Pass
runMc4(std::uint64_t seed, bool traced, Timer &tm, long pass_span,
       Checks &chk)
{
    const wl::Workload *w = wl::findWorkload(kMcWorkload);
    Pass p;
    double build_s = 0, init_s = 0, explore_s = 0;
    double states = 0, transitions = 0;
    std::vector<std::string> first_ids;
    for (core::AtomicsMode mode : kAllModes) {
        const char *mname = core::atomicsModeIdent(mode);
        long ms = tm.open(mname, pass_span);
        std::vector<isa::Program> progs;
        mc::MemInit init;
        std::unique_ptr<mc::Model> model;
        p.setupS += repeatedSetup(
            tm, ms, "analysis.mc.model_init", build_s, init_s,
            [&] { model.reset(); },
            [&] {
                progs = wl::buildPrograms(*w, kMcThreads, kMcScale);
                init = w->init ? w->init(kMcThreads, kMcScale)
                               : mc::MemInit{};
            },
            [&] {
                mc::ModelOpts mopts;
                mopts.mode = mode;
                mopts.masterSeed = masterSeed(seed);
                model = std::make_unique<mc::Model>(progs, mopts);
            });
        mc::ExploreResult r;
        double e = tm.time("analysis.mc.explore", ms, [&] {
            r = mc::explore(*model, init, mc::ExploreOpts{});
        });
        tm.close(ms);
        explore_s += e;
        p.jobS.push_back(e);

        std::string k = mname;
        chk.expect(r.complete && r.violations.empty(),
                   k + ": exploration incomplete or violating");
        std::vector<std::string> ids;
        std::string joined;
        for (const mc::Outcome &o : r.outcomes) {
            ids.push_back(o.id);
            joined += o.id + "\n";
        }
        if (first_ids.empty())
            first_ids = ids;
        else
            chk.expect(ids == first_ids,
                       k + ": outcome set differs from fenced");
        p.facts[k + "/states"] = r.statesExplored;
        p.facts[k + "/transitions"] = r.transitionsTaken;
        p.facts[k + "/finals"] = r.finalStates;
        p.facts[k + "/outcomes"] = r.outcomes.size();
        p.facts[k + "/outcomes_fnv"] = fnv64(joined);
        states += static_cast<double>(r.statesExplored);
        transitions += static_cast<double>(r.transitionsTaken);
    }
    p.wallS = explore_s;
    if (traced) {
        p.layer["workloads.build_s"] = build_s;
        p.layer["analysis.mc.model_init_s"] = init_s;
        p.layer["analysis.mc.explore_s"] = explore_s;
        p.layer["analysis.mc.states"] = states;
        p.layer["analysis.mc.transitions"] = transitions;
        finishLayers(p, TickTotals{});
    }
    return p;
}

// --- expected values ----------------------------------------------------

Facts
loadFacts(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open expected-values file '%s'", path.c_str());
    std::stringstream ss;
    ss << in.rdbuf();
    JsonValue doc = JsonValue::parse(ss.str());
    Facts f;
    for (const auto &[k, v] : doc.at("values").members) {
        if (!v.isNumber() || !v.hasExactInt)
            fatal("expected value '%s' in '%s' is not an unsigned integer",
                  k.c_str(), path.c_str());
        f[k] = v.exactInt;
    }
    return f;
}

void
writeFacts(const std::string &path, const std::string &workload,
           std::uint64_t seed, const Facts &f)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write expected-values file '%s'", path.c_str());
    // One value per line, so a changed output shows as a one-line diff.
    out << "{\"schema\": \"fa-perfbench-expected-v1\", \"workload\": \""
        << workload << "\", \"seed\": " << seed << ",\n \"values\": {";
    const char *sep = "\n";
    for (const auto &[k, v] : f) {
        out << sep << "  \"" << JsonWriter::escape(k) << "\": " << v;
        sep = ",\n";
    }
    out << "\n}}\n";
}

/** Every key of `want` equal in `got`, and no key of `got` missing
 * from `want`. One check per key. */
void
compareFacts(const Facts &want, const Facts &got, const std::string &what,
             Checks &chk)
{
    for (const auto &[k, v] : want) {
        auto it = got.find(k);
        chk.expect(it != got.end() && it->second == v,
                   strfmt("%s: %s = %s, expected %llu", what.c_str(),
                          k.c_str(),
                          it == got.end()
                              ? "missing"
                              : std::to_string(it->second).c_str(),
                          static_cast<unsigned long long>(v)));
    }
    for (const auto &[k, v] : got)
        if (!want.count(k))
            chk.expect(false, what + ": unexpected key " + k);
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write spans file '%s'", path.c_str());
    JsonWriter jw(out);
    jw.beginObject();
    jw.key("traceEvents").beginArray();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        jw.beginObject();
        jw.key("name").value(s.name);
        jw.key("ph").value("X");
        jw.key("pid").value(1);
        jw.key("tid").value(1);
        jw.key("ts").value(s.startS * 1e6);
        jw.key("dur").value((s.endS - s.startS) * 1e6);
        jw.key("args").beginObject();
        jw.key("id").value(std::uint64_t{i});
        jw.key("parent").value(static_cast<std::int64_t>(s.parent));
        jw.endObject();
        jw.endObject();
    }
    jw.endArray();
    jw.endObject();
    out << "\n";
}

// --- host facts ---------------------------------------------------------

#ifndef FA_BENCH_BUILD_TYPE
#define FA_BENCH_BUILD_TYPE ""
#endif
#ifndef FA_BENCH_CXX_FLAGS
#define FA_BENCH_CXX_FLAGS ""
#endif
#ifndef FA_BENCH_COMPILER
#define FA_BENCH_COMPILER "unknown"
#endif

/** Why this build must not be timed; empty when it may. */
std::string
refusedBuild()
{
    std::string flags = FA_BENCH_CXX_FLAGS;
    if (std::string(FA_BENCH_BUILD_TYPE) != "Release")
        return "build type is '" FA_BENCH_BUILD_TYPE "', not Release";
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
    return "built without optimization or with assertions on";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "built with a sanitizer";
#endif
    for (const char *bad : {"-fsanitize", "-pg", "-O0", "--coverage"})
        if (flags.find(bad) != std::string::npos)
            return std::string("compiled with ") + bad;
    return "";
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Must match BENCHMARK.json's end_to_end list. */
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/** Must match BENCHMARK.json's per_layer list. */
constexpr MetricDef kPerLayer[] = {
    {"workloads.build_s", "s"},
    {"sim.system_init_s", "s"},
    {"sim.run_s", "s"},
    {"sim.collect_s", "s"},
    {"core.tick_s", "s"},
    {"core.ns_per_core_tick", "ns"},
    {"core.committed_insts", "count"},
    {"core.active_cycles", "count"},
    {"core.ipc", "inst/cycle"},
    {"core.issued_uops", "count"},
    {"core.commit_per_fetch", "ratio"},
    {"core.squashed_insts", "count"},
    {"core.dispatch_stall_aq_cycles", "count"},
    {"core.atomic_drain_sb_cycles", "count"},
    {"core.watchdog_timeouts", "count"},
    {"mem.tick_s", "s"},
    {"mem.ns_per_tick", "ns"},
    {"mem.transactions", "count"},
    {"mem.l1_misses", "count"},
    {"mem.l1_hit_ratio", "ratio"},
    {"mem.network_msgs", "count"},
    {"mem.inv_blocked_retries", "count"},
    {"mem.fill_blocked_on_lock", "count"},
    {"analysis.trace.events", "count"},
    {"analysis.trace.sync_events", "count"},
    {"analysis.race.analyze_s", "s"},
    {"analysis.race.kevents_per_s", "1/s"},
    {"analysis.race.findings", "count"},
    {"analysis.race.report_s", "s"},
    {"analysis.mc.model_init_s", "s"},
    {"analysis.mc.explore_s", "s"},
    {"analysis.mc.states", "count"},
    {"analysis.mc.transitions", "count"},
    {"analysis.mc.kstates_per_s", "1/s"},
    {"trace.overhead_frac", "ratio"},
};

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

using WorkloadFn = Pass (*)(std::uint64_t, bool, Timer &, long, Checks &);

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    double budget = 10.0;
    unsigned trace = 0;
    std::string expected_path;
    std::string record_path;
    std::string spans_path;
    std::string commit = "unknown";

    cli::Parser p("fa_perfbench",
                  "benchmark: one workload, serially, with "
                  "output checks");
    p.opt(&workload, "", "--workload", "NAME", "fig14|race64|mc4");
    p.opt(&seed, "", "--seed", "N", "workload seed index [0]");
    p.opt(&budget, "", "--seconds", "S",
          "measure for S host seconds, at least one pass [10]");
    p.opt(&trace, "", "--trace", "0|1", "per-layer traced run [0]");
    p.opt(&expected_path, "", "--expected", "FILE",
          "compare the exact outputs against FILE");
    p.opt(&record_path, "", "--record", "FILE",
          "write the exact outputs of this seed to FILE");
    p.opt(&spans_path, "", "--spans", "FILE",
          "write the traced passes' spans (Chrome trace JSON)");
    p.opt(&commit, "", "--commit", "SHA", "source revision [unknown]");
    p.parse(argc, argv);

    WorkloadFn fn = workload == "fig14"    ? runFig14
                    : workload == "race64" ? runRace64
                    : workload == "mc4"    ? runMc4
                                           : nullptr;
    if (!fn || trace > 1 || !(budget > 0.0)) {
        std::cerr << "fa_perfbench: need --workload fig14|race64|mc4, "
                     "--trace 0|1 and --seconds > 0\n";
        return 2;
    }
    if (std::string why = refusedBuild(); !why.empty()) {
        std::cerr << "fa_perfbench: refusing to time this build: " << why
                  << "\n";
        return 2;
    }

    std::cout << "# fa_perfbench workload=" << workload << " seed=" << seed
              << " seconds=" << budget << " trace=" << trace << "\n"
              << "# host nproc=" << sysconf(_SC_NPROCESSORS_ONLN)
              << " compiler=\"" << FA_BENCH_COMPILER << "\" build="
              << FA_BENCH_BUILD_TYPE << " flags=\"" << FA_BENCH_CXX_FLAGS
              << "\" commit=" << commit << "\n";

    try {
        Checks chk;
        const bool traced = trace == 1;
        std::vector<Span> spans;
        const auto start = Clock::now();
        Timer plain(nullptr, start);
        Timer tracing(&spans, start);

        std::vector<Pass> passes;   // untraced
        std::vector<Pass> tpasses;  // traced
        std::vector<double> iter_s;
        do {
            auto t0 = Clock::now();
            // A run's first pass is the coldest; alternating which
            // kind goes first keeps that off one side of
            // trace.overhead_frac.
            bool traced_first = traced && iter_s.size() % 2 == 1;
            auto traced_pass = [&] {
                long ps = tracing.open(
                    "pass" + std::to_string(tpasses.size()), -1);
                tpasses.push_back(fn(seed, true, tracing, ps, chk));
                tracing.close(ps);
            };
            if (traced_first)
                traced_pass();
            passes.push_back(fn(seed, false, plain, -1, chk));
            if (traced && !traced_first)
                traced_pass();
            if (traced)
                compareFacts(passes.back().facts, tpasses.back().facts,
                             "traced vs untraced pass", chk);
            if (passes.size() > 1)
                compareFacts(passes.front().facts, passes.back().facts,
                             "pass-to-pass determinism", chk);
            iter_s.push_back(seconds(Clock::now() - t0));
        } while (seconds(Clock::now() - start) + median(iter_s) <= budget);

        const Facts &facts = passes.front().facts;
        if (!expected_path.empty())
            compareFacts(loadFacts(expected_path), facts,
                         "expected values", chk);
        else
            std::cout << "# no expected values for this seed: "
                         "self-consistency checks only\n";
        if (!record_path.empty() && chk.failed == 0)
            writeFacts(record_path, workload, seed, facts);
        if (!spans_path.empty() && traced)
            writeSpans(spans_path, spans);

        auto med = [](const std::vector<Pass> &ps, auto get) {
            std::vector<double> v;
            for (const Pass &x : ps)
                v.push_back(get(x));
            return median(v);
        };
        const Pass &first = passes.front();
        std::map<std::string, double> out;
        auto put = [&](const std::string &n, double v, const char *u) {
            out[n] = v;
            std::cout << n << " " << num(v) << " " << u << "\n";
        };
        std::cout << "# pass wall_s:";
        for (const Pass &x : passes)
            std::cout << " " << x.wallS;
        std::cout << (traced ? " (+" + std::to_string(tpasses.size()) +
                                   " traced)"
                             : "")
                  << "\n";
        put("wall_s", med(passes, [](const Pass &x) { return x.wallS; }),
            "s");
        put("setup_s",
            med(passes, [](const Pass &x) { return x.setupS; }), "s");
        put("peak_rss_mb", peakRssMb(), "MB");
        if (first.simInsts) {
            put("sim_mips", med(passes, [](const Pass &x) {
                    return ratio(static_cast<double>(x.simInsts) / 1e6,
                                 x.runS);
                }), "MIPS");
            put("sim_cycles", static_cast<double>(first.simCycles),
                "cycles");
        }
        if (first.jobS.size() > 1)
            put("job_p90_s", med(passes, [](const Pass &x) {
                    return quantile(x.jobS, 0.9);
                }), "s");
        if (first.normFreeFwd > 0.0) {
            put("norm_time_freefwd", first.normFreeFwd, "ratio");
            std::cout << "# norm_time_freefwd: paper Figure 14 "
                         "reports 0.875; this model is not validated "
                         "against hardware\n";
        }
        if (traced) {
            for (const MetricDef &m : kPerLayer) {
                if (std::string(m.name) == "trace.overhead_frac")
                    continue;
                put(m.name, med(tpasses, [&](const Pass &x) {
                        auto it = x.layer.find(m.name);
                        return it == x.layer.end() ? 0.0 : it->second;
                    }), m.unit);
            }
            double traced_s =
                med(tpasses, [](const Pass &x) { return x.wallS; });
            put("trace.overhead_frac", ratio(traced_s, out["wall_s"]) - 1.0,
                "ratio");
            if (first.simInsts)
                std::cout << "# fidelity: traced sim_cycles="
                          << tpasses.front().simCycles
                          << " untraced=" << first.simCycles
                          << " traced committed="
                          << tpasses.front().simInsts
                          << " untraced=" << first.simInsts << "\n";
        }
        double fail_frac = ratio(static_cast<double>(chk.failed),
                                 static_cast<double>(chk.attempted));
        std::cout << "fail_frac " << num(fail_frac) << " ratio ("
                  << chk.failed << "/" << chk.attempted << " checks)\n";

        std::ostringstream js;
        js << "{\"correct\": " << (chk.failed == 0 ? "true" : "false")
           << ", \"attempted\": " << chk.attempted
           << ", \"failed\": " << chk.failed << ", \"metrics\": {";
        bool firstm = true;
        auto emit = [&](const MetricDef &m) {
            js << (firstm ? "" : ", ") << "\"" << m.name
               << "\": {\"value\": " << num(out[m.name])
               << ", \"unit\": \"" << m.unit << "\"}";
            firstm = false;
        };
        if (traced)
            for (const MetricDef &m : kPerLayer)
                emit(m);
        else
            for (const MetricDef &m : kEndToEnd)
                emit(m);
        js << "}}";
        std::cout << js.str() << std::endl;
        return chk.failed == 0 ? 0 : 1;
    } catch (const FatalError &e) {
        std::cerr << "fa_perfbench: " << e.message << "\n";
        return 1;
    } catch (const std::exception &e) {
        std::cerr << "fa_perfbench: " << e.what() << "\n";
        return 1;
    }
}
