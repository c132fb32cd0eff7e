/**
 * @file
 * Harvest-day benchmark program. Runs trace::runHarvestDay on one
 * named workload and prints one JSON object of raw measurements as
 * the last line of stdout; perfbench/run.py builds this binary, gates
 * its outputs and derives the benchmark's metrics from them.
 *
 *   harvest_bench --workload <name> --seed <n> --mode e2e|traced
 *                 [--seconds <s>] [--short]
 *
 * e2e     Untraced. Set up (dataset + trainer) and run one whole day;
 *         repeat set-up + day as many times as whole days come
 *         closest to --seconds (at least once). At least fifteen
 *         set-ups are timed.
 * traced  The timed per-layer replays (replay.cc), then three days on
 *         fresh set-ups: untraced, traced (the program's span tracer
 *         on and host CPU time sampled per module, sampler.cc), and
 *         with the profiler off.
 * --short A quarter-length day (self-test only).
 *
 * Unknown flags or workload names exit 2.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "harvest_bench.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "obs/trace.hh"
#include "data/synthetic.hh"
#include "sim/cluster.hh"
#include "trace/harvest.hh"
#include "trace/tidal.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

using namespace socflow;

namespace perfbench {

core::EpochRecord
MeteredTrainer::runEpoch()
{
    core::EpochRecord rec = core::SoCFlowTrainer::runEpoch();
    energyJoules += rec.energyJoules;
    return rec;
}

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Every workload: lenet5 on the emnist analog, group batch 32 and
// the same fixed-seed tidal trace; chaos-day adds a fixed-seed fault
// plan. --seed seeds the trainer (weight init, shuffling), so the
// simulated schedule is the workload's and the numerics the seed's.
const Workload kWorkloads[] = {
    // The paper's 60-SoC server: kernel-bound, solver nearly idle.
    {"rack-harvest", 1, 12, 1, 0, 30.0, false},
    // 17 racks / 1020 SoCs, one group batch per group: solver and
    // pricing bound. One thread: at two the pool fan-out makes the
    // day ~1.6x slower and its run-to-run spread ~20%.
    {"fleet-harvest", 17, 102, 1, 102 * kGroupBatch, 120.0, false},
    // 2 racks / 120 SoCs under a seeded fault plan.
    {"chaos-day", 2, 12, 2, 0, 30.0, true},
};

/** Set-ups timed per e2e run; setup_s is their median. */
constexpr std::size_t kMinSetups = 15;

/** The tidal trace of bench_e2e_throughput at its default seed. */
constexpr std::uint64_t kTidalSeed = 99;
/** chaos-day's fault plan: one of each fault kind it exists for. */
constexpr std::uint64_t kFaultPlanSeed = 2066;

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

/** Benchmark-side span: one timed call from this file into a layer. */
struct Span {
    std::string name;
    double startS;
    double endS;
};

struct Options {
    const Workload *workload = nullptr;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool traced = false;
    bool shortDay = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "harvest_bench: %s\nusage: harvest_bench --workload "
                 "<name> --seed <n> --mode e2e|traced [--seconds <s>] "
                 "[--short]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveMode = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--short") {
            o.shortDay = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string val = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = findWorkload(val);
            if (!o.workload)
                usage(("unknown workload " + val).c_str());
        } else if (flag == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end != '\0')
                usage("--seed takes an unsigned integer");
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end != '\0' || o.seconds < 0.0)
                usage("--seconds takes a non-negative number");
        } else if (flag == "--mode") {
            if (val != "e2e" && val != "traced")
                usage("--mode is e2e or traced");
            o.traced = val == "traced";
            haveMode = true;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!o.workload || !haveMode)
        usage("--workload and --mode are required");
    return o;
}

double
slotMinutes(const Options &o)
{
    return o.workload->slotMinutes * (o.shortDay ? 4.0 : 1.0);
}

/** Build the dataset and trainer for one day (profiler zeroed). */
Setup
makeSetup(const Options &o, std::vector<Span> *spans, Clock::time_point t0)
{
    const Workload &w = *o.workload;
    Setup s;
    obs::profiler().reset();

    const auto d0 = Clock::now();
    data::SyntheticParams p = data::registryParams("emnist");
    if (w.trainSamples > 0)
        p.trainSamples = w.trainSamples;
    s.bundle = std::make_unique<data::DataBundle>(data::makeSynthetic(p));
    const auto d1 = Clock::now();

    s.cfg.modelFamily = "lenet5";
    s.cfg.numSocs = numSocs(w);
    s.cfg.numGroups = w.groups;
    s.cfg.groupBatch = kGroupBatch;
    s.cfg.seed = o.seed;
    if (w.racks > 1)
        s.cfg.clusterTemplate = sim::fleetClusterConfig(
            sim::FleetTopology{w.racks, kBoardsPerRack, kSocsPerBoard});
    s.trainer = std::make_unique<MeteredTrainer>(s.cfg, *s.bundle);
    const auto d2 = Clock::now();

    s.datasetSeconds = std::chrono::duration<double>(d1 - d0).count();
    s.trainerSeconds = std::chrono::duration<double>(d2 - d1).count();
    if (spans) {
        const auto at = [&](Clock::time_point t) {
            return std::chrono::duration<double>(t - t0).count();
        };
        spans->push_back({"data.make_dataset", at(d0), at(d1)});
        spans->push_back({"core.trainer_ctor", at(d1), at(d2)});
    }
    return s;
}

/** The chaos workload's fault plan (one day's worth). */
fault::FaultPlan
chaosPlan(const Options &o, const core::SoCFlowConfig &cfg)
{
    const Workload &w = *o.workload;
    fault::FaultPlanConfig pc;
    pc.horizonEpochs = o.shortDay ? 10 : 40;
    pc.numSocs = numSocs(w);
    pc.socsPerBoard = kSocsPerBoard;
    pc.boardsPerRack = kBoardsPerRack;
    pc.numRacks = w.racks;
    pc.crashes = 1;
    pc.midWaveCrashes = 1;
    pc.leaderCrashes = 1;
    pc.boardPartitions = 1;
    pc.rejoins = 1;
    pc.checkpointFailures = 2;
    pc.rackPowerLosses = 1;
    // One corruption burst longer than the sync retry budget: the
    // sync fails typed instead of retrying clean.
    pc.gradCorrupts = 1;
    pc.gradCorruptBurst = cfg.sync.maxRetries + 2;
    pc.seed = kFaultPlanSeed;
    return fault::FaultPlan::random(pc);
}

/** Counter deltas and outcomes of one harvest day. */
struct Day {
    const char *kind;
    trace::HarvestReport report;
    double wallS = 0.0;
    double energyJ = 0.0;
    obs::PerfReport prof;
    /** Growth of each kCounters entry over the day. */
    std::vector<double> counterDeltas;
    std::size_t traceEvents = 0;
};

const char *const kCounters[] = {
    "trainer_steps_total", "flow_network_simulations_total",
    "flow_network_flows_total", "trainer_topology_rebuilds_total",
    "collective_retries_total"};

Day
runDay(const Options &o, Setup &s, const char *kind,
       std::vector<Span> *spans, Clock::time_point t0)
{
    const Workload &w = *o.workload;
    setGlobalThreads(w.threads);

    trace::TidalConfig tc;
    tc.numSocs = numSocs(w);
    tc.slotMinutes = slotMinutes(o);
    tc.seed = kTidalSeed;
    const trace::TidalTrace tidal(tc);

    trace::HarvestConfig hc;
    hc.socsPerGroup = numSocs(w) / w.groups;
    std::unique_ptr<fault::FaultInjector> injector;
    if (w.chaos) {
        injector = std::make_unique<fault::FaultInjector>(
            chaosPlan(o, s.cfg));
        hc.faults = injector.get();
        hc.ckptReplicas = 2;
        hc.ckptIntervalEpochs = 4;
    }

    Day d;
    for (const char *c : kCounters)
        d.counterDeltas.push_back(-obs::metrics().counter(c).value());
    d.kind = kind;
    const auto a = Clock::now();
    d.report = trace::runHarvestDay(*s.trainer, s.cfg, tidal, hc);
    const auto b = Clock::now();
    d.wallS = std::chrono::duration<double>(b - a).count();
    d.energyJ = s.trainer->energyJoules;
    d.prof = obs::profiler().report();
    d.traceEvents = obs::tracer().eventCount();
    for (std::size_t i = 0; i < std::size(kCounters); ++i)
        d.counterDeltas[i] += obs::metrics().counter(kCounters[i]).value();
    if (spans)
        spans->push_back({std::string("trace.harvest_day.") + kind,
                          std::chrono::duration<double>(a - t0).count(),
                          std::chrono::duration<double>(b - t0).count()});
    return d;
}

/** Minimal JSON writer: one object on one line. */
class Json
{
  public:
    Json &
    key(const std::string &k)
    {
        sep();
        out += '"' + k + "\":";
        fresh = true;
        return *this;
    }
    Json &
    num(double v)
    {
        sep();
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out += buf;
        return *this;
    }
    Json &
    str(const std::string &v)
    {
        sep();
        out += '"' + v + '"';
        return *this;
    }
    Json &
    boolean(bool v)
    {
        sep();
        out += v ? "true" : "false";
        return *this;
    }
    Json &
    open(char c)
    {
        sep();
        out += c;
        fresh = true;
        return *this;
    }
    Json &
    close(char c)
    {
        out += c;
        fresh = false;
        return *this;
    }
    const std::string &text() const { return out; }

  private:
    void
    sep()
    {
        if (!fresh && !out.empty())
            out += ',';
        fresh = false;
    }
    std::string out;
    bool fresh = true;
};

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
emitDay(Json &j, const Day &d)
{
    const trace::HarvestReport &r = d.report;
    j.open('{');
    j.key("kind").str(d.kind);
    j.key("wall_s").num(d.wallS);
    j.key("hash").str(hex(r.timelineHash));
    j.key("epochs").num(static_cast<double>(r.epochsTrained));
    j.key("final_acc").num(r.finalTestAcc);
    j.key("training_hours").num(r.trainingHours);
    j.key("energy_j").num(d.energyJ);
    j.key("recovery_s").num(r.recoverySeconds);
    j.key("restore_s").num(r.restoreSeconds);
    j.key("lost_work_epochs").num(static_cast<double>(r.lostWorkEpochs));
    j.key("sync_failures").num(static_cast<double>(r.syncFailures));
    j.key("ckpt_taken").num(static_cast<double>(r.checkpointsTaken));
    j.key("ckpt_retries").num(static_cast<double>(r.checkpointRetries));
    j.key("ckpt_lost").num(static_cast<double>(r.checkpointsLost));
    j.key("replica_writes").num(static_cast<double>(r.replicaWrites));
    j.key("chunks_retransmitted")
        .num(static_cast<double>(r.chunksRetransmitted));
    j.key("fenced_stale").num(static_cast<double>(r.fencedStaleMsgs));
    j.key("power_losses").num(static_cast<double>(r.powerLosses));
    j.key("partitions").num(static_cast<double>(r.partitions));
    j.key("counters").open('{');
    for (std::size_t i = 0; i < std::size(kCounters); ++i)
        j.key(kCounters[i]).num(d.counterDeltas[i]);
    j.close('}');
    j.key("trace_events").num(static_cast<double>(d.traceEvents));

    const obs::PerfReport &p = d.prof;
    j.key("profile").open('{');
    j.key("epochs").num(static_cast<double>(p.epochs));
    j.key("conservation_ok").boolean(p.conservationOk);
    j.key("worst_conservation_error").num(p.worstConservationError);
    j.key("overlap_ratio").num(p.overlapRatio);
    j.key("hash").str(hex(p.timelineHash));
    j.key("exclusive_s").open('{');
    for (std::size_t i = 0; i < obs::kNumPhases; ++i)
        j.key(obs::phaseName(static_cast<obs::Phase>(i)))
            .num(p.exclusiveSeconds[i]);
    j.close('}');
    j.close('}');
    j.close('}');
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int
run(const Options &o)
{
    const Workload &w = *o.workload;
    const auto t0 = Clock::now();
    std::vector<Span> spans;
    std::vector<Day> days;
    std::vector<double> datasetS, trainerS;
    Measurements replay;
    HostSamples host;

    const auto keep = [&](const Setup &s) {
        datasetS.push_back(s.datasetSeconds);
        trainerS.push_back(s.trainerSeconds);
    };

    if (!o.traced) {
        // Whole days only: as many as come closest to --seconds.
        std::size_t want = 1;
        while (days.size() < want) {
            Setup s = makeSetup(o, nullptr, t0);
            keep(s);
            days.push_back(runDay(o, s, "untraced", nullptr, t0));
            want = std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       std::lround(o.seconds / days.front().wallS)));
        }
        while (datasetS.size() < kMinSetups)
            keep(makeSetup(o, nullptr, t0));
    } else {
        // Replays first: they also warm the process up, so the three
        // days below compare without a first-day penalty.
        {
            Setup s = makeSetup(o, &spans, t0);
            keep(s);
            const double r0 = secondsSince(t0);
            replay = replayLayers(w, s);
            spans.push_back({"replay", r0, secondsSince(t0)});
        }
        for (const char *kind : {"untraced", "traced", "unprofiled"}) {
            Setup s = makeSetup(o, &spans, t0);
            keep(s);
            const bool traced = std::strcmp(kind, "traced") == 0;
            obs::tracer().setEnabled(traced);
            obs::profiler().setEnabled(std::strcmp(kind, "unprofiled") != 0);
            HostSampler sampler;
            if (traced)
                sampler.start();
            days.push_back(runDay(o, s, kind, &spans, t0));
            if (traced)
                host = sampler.stop();
            obs::tracer().setEnabled(false);
            obs::tracer().clear();
            obs::profiler().setEnabled(true);
        }
    }

    Json j;
    j.open('{');
    j.key("workload").str(w.name);
    j.key("dataset_s").open('[');
    for (double v : datasetS)
        j.num(v);
    j.close(']');
    j.key("trainer_s").open('[');
    for (double v : trainerS)
        j.num(v);
    j.close(']');
    j.key("days").open('[');
    for (const Day &d : days)
        emitDay(j, d);
    j.close(']');
    j.key("replay").open('{');
    for (const auto &[name, v] : replay)
        j.key(name).num(v);
    j.close('}');
    j.key("host_samples").open('[');
    for (const auto &[stack, n] : host) {
        j.open('{');
        j.key("n").num(static_cast<double>(n));
        j.key("stack").open('[');
        for (const std::string &frame : stack)
            j.str(frame);
        j.close(']');
        j.close('}');
    }
    j.close(']');
    j.key("spans").open('[');
    for (const Span &sp : spans) {
        j.open('{');
        j.key("name").str(sp.name);
        j.key("start_s").num(sp.startS);
        j.key("end_s").num(sp.endS);
        j.close('}');
    }
    j.close(']');
    j.key("peak_rss_mb").num(peakRssMb());
    j.close('}');
    std::printf("%s\n", j.text().c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Warn);
    const perfbench::Options o = perfbench::parseArgs(argc, argv);
    try {
        return perfbench::run(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "harvest_bench: %s\n", e.what());
        return 1;
    }
}
