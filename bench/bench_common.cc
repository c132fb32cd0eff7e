#include "bench_common.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <sys/stat.h>

#include "baselines/exact_sync.hh"
#include "baselines/fedavg.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "obs/snapshot.hh"
#include "obs/stream_sink.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace socflow {
namespace bench {

namespace {

/** Output paths for the atexit writer (empty = not requested). */
std::string &
traceOutPath()
{
    static std::string p;
    return p;
}

std::string &
metricsOutPath()
{
    static std::string p;
    return p;
}

std::string &
postmortemOutPath()
{
    static std::string p;
    return p;
}

/** --trace-rotate-mb in MiB (0 = buffer-all export). */
std::size_t &
traceRotateMb()
{
    static std::size_t mb = 0;
    return mb;
}

std::size_t &
metricsIntervalEpochs()
{
    static std::size_t n = 0;
    return n;
}

bool &
smokeFlag()
{
    static bool smoke = false;
    return smoke;
}

std::size_t &
threadsCount()
{
    static std::size_t n = 0;
    return n;
}

std::uint64_t &
seedValue()
{
    static std::uint64_t seed = 42;
    return seed;
}

std::size_t &
racksValue()
{
    static std::size_t racks = 1;
    return racks;
}

double &
coreGbpsValue()
{
    static double gbps = 100.0;
    return gbps;
}

double &
oversubValue()
{
    static double factor = 1.0;
    return factor;
}

std::string &
benchJsonOutPath()
{
    static std::string p;
    return p;
}

std::size_t &
psShardsValue()
{
    static std::size_t shards = 8;
    return shards;
}

std::size_t &
stalenessValue()
{
    static std::size_t bound = 4;
    return bound;
}

std::string &
metricsExportCmdValue()
{
    static std::string cmd;
    return cmd;
}

std::string &
baselinePath()
{
    static std::string p;
    return p;
}

std::string &
profileOutPathValue()
{
    static std::string p;
    return p;
}

/** The streaming sink, when rotation was requested (leaked; its
 *  flusher is joined by the atexit close below). */
obs::StreamingTraceSink *&
streamSink()
{
    static obs::StreamingTraceSink *sink = nullptr;
    return sink;
}

obs::MetricSeriesWriter *&
seriesWriter()
{
    static obs::MetricSeriesWriter *w = nullptr;
    return w;
}

void
writeObservabilityOutputs()
{
    const std::string &trace = traceOutPath();
    if (obs::StreamingTraceSink *sink = streamSink()) {
        // Streamed mode: the trace is already on disk; detach so late
        // events don't race the drain, then flush the final segment.
        obs::tracer().setStreamSink(nullptr);
        sink->close();
        std::fprintf(stderr,
                     "trace streamed to %s (%zu segments, %zu events)\n",
                     trace.c_str(), sink->segmentsWritten(),
                     sink->eventsWritten());
    } else if (!trace.empty()) {
        if (obs::tracer().writeChromeTrace(trace)) {
            std::fprintf(stderr, "trace written to %s (%zu events)\n",
                         trace.c_str(), obs::tracer().eventCount());
        } else {
            std::fprintf(stderr, "failed to write trace to %s\n",
                         trace.c_str());
        }
    }
    const std::string &metricsPath = metricsOutPath();
    if (obs::MetricSeriesWriter *w = seriesWriter()) {
        // Series mode: the NDJSON lines are the output; no text dump.
        std::fprintf(stderr, "metric series written to %s (%zu lines)\n",
                     metricsPath.c_str(), w->snapshotsWritten());
        // --metrics-export-cmd: pipe the NDJSON series lines to a
        // user command (remote export hook). Best-effort: a failing
        // command is reported, never fatal, because the series file
        // on disk is already the durable output.
        const std::string &cmd = metricsExportCmdValue();
        if (!cmd.empty()) {
            std::ifstream series(metricsPath);
            FILE *pipe = series ? popen(cmd.c_str(), "w") : nullptr;
            if (!pipe) {
                std::fprintf(stderr,
                             "metrics export: failed to run '%s'\n",
                             cmd.c_str());
            } else {
                std::string line;
                std::size_t lines = 0;
                bool ok = true;
                while (ok && std::getline(series, line)) {
                    line.push_back('\n');
                    ok = std::fwrite(line.data(), 1, line.size(),
                                     pipe) == line.size();
                    ++lines;
                }
                const int rc = pclose(pipe);
                std::fprintf(stderr,
                             "metrics export: piped %zu lines to "
                             "'%s' (exit %d)\n",
                             lines, cmd.c_str(), rc);
            }
        }
    } else if (!metricsPath.empty()) {
        if (obs::metrics().writeTextDump(metricsPath)) {
            std::fprintf(stderr, "metrics written to %s\n",
                         metricsPath.c_str());
        } else {
            std::fprintf(stderr, "failed to write metrics to %s\n",
                         metricsPath.c_str());
        }
    }
    // Critical-path profiler outputs: the perf doctor summary prints
    // for every bench/example that trained at least one epoch; the
    // full PerfReport JSON lands at --profile-out when requested.
    obs::Profiler &prof = obs::profiler();
    if (prof.enabled() && prof.epochsProfiled() > 0) {
        const obs::PerfReport report = prof.report();
        std::fputs(report.doctorSummary().c_str(), stderr);
        const std::string &profPath = profileOutPathValue();
        if (!profPath.empty()) {
            std::ofstream out(profPath);
            if (out && (out << report.toJson() << '\n')) {
                std::fprintf(stderr, "perf profile written to %s\n",
                             profPath.c_str());
            } else {
                std::fprintf(stderr,
                             "failed to write perf profile to %s\n",
                             profPath.c_str());
            }
        }
    }
}

/** Parse a non-negative integer flag value (fatal on junk). */
std::size_t
parseCount(const std::string &flag, const std::string &value)
{
    char *end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (value.empty() || end == nullptr || *end != '\0' || parsed < 0.0)
        fatal("bad value for ", flag, ": '", value, "'");
    return static_cast<std::size_t>(parsed);
}

/** Parse a positive real flag value (fatal on junk). */
double
parseReal(const std::string &flag, const std::string &value)
{
    char *end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (value.empty() || end == nullptr || *end != '\0' || parsed <= 0.0)
        fatal("bad value for ", flag, ": '", value, "'");
    return parsed;
}

} // namespace

void
initBenchObservability(int &argc, char **argv)
{
    std::string rotateMbValue;
    std::string intervalValue;
    std::string postmortemSpansValue;
    std::string threadsValue;
    std::string seedStr;
    std::string racksStr;
    std::string coreGbpsStr;
    std::string oversubStr;
    std::string psShardsStr;
    std::string stalenessStr;
    int out = 1;
    bool any = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smokeFlag() = true;
            continue;
        }
        std::string *dest = nullptr;
        std::string value;
        bool consumed = false;
        for (const auto &[flag, path] :
             {std::pair<const char *, std::string *>{
                  "--trace-out", &traceOutPath()},
              {"--metrics-out", &metricsOutPath()},
              {"--postmortem-out", &postmortemOutPath()},
              {"--trace-rotate-mb", &rotateMbValue},
              {"--metrics-interval", &intervalValue},
              {"--postmortem-spans", &postmortemSpansValue},
              {"--threads", &threadsValue},
              {"--seed", &seedStr},
              {"--racks", &racksStr},
              {"--core-gbps", &coreGbpsStr},
              {"--oversub", &oversubStr},
              {"--ps-shards", &psShardsStr},
              {"--staleness", &stalenessStr},
              {"--metrics-export-cmd", &metricsExportCmdValue()},
              {"--bench-json", &benchJsonOutPath()},
              {"--baseline", &baselinePath()},
              {"--profile-out", &profileOutPathValue()}}) {
            const std::string prefix = std::string(flag) + "=";
            if (arg.rfind(prefix, 0) == 0) {
                dest = path;
                value = arg.substr(prefix.size());
                consumed = true;
            } else if (arg == flag) {
                if (i + 1 >= argc)
                    fatal(flag, " requires a value argument");
                dest = path;
                value = argv[++i];
                consumed = true;
            }
            if (consumed)
                break;
        }
        if (!consumed) {
            argv[out++] = argv[i];
            continue;
        }
        if (value.empty())
            fatal("empty value for observability flag: ", arg);
        *dest = value;
        any = true;
    }
    argc = out;
    argv[argc] = nullptr;

    if (!threadsValue.empty()) {
        threadsCount() = parseCount("--threads", threadsValue);
        setGlobalThreads(threadsCount());
    }
    if (!seedStr.empty())
        seedValue() = parseCount("--seed", seedStr);
    if (!racksStr.empty()) {
        racksValue() = parseCount("--racks", racksStr);
        if (racksValue() == 0)
            fatal("--racks must be at least 1");
    }
    if (!coreGbpsStr.empty())
        coreGbpsValue() = parseReal("--core-gbps", coreGbpsStr);
    if (!oversubStr.empty()) {
        oversubValue() = parseReal("--oversub", oversubStr);
        if (oversubValue() < 1.0)
            fatal("--oversub must be >= 1 (1 = non-blocking core)");
    }
    if (!psShardsStr.empty()) {
        psShardsValue() = parseCount("--ps-shards", psShardsStr);
        if (psShardsValue() == 0)
            fatal("--ps-shards must be at least 1");
    }
    if (!stalenessStr.empty())
        stalenessValue() = parseCount("--staleness", stalenessStr);

    // Registered for every bench/example, not only flagged runs: the
    // always-on profiler's doctor summary is part of the default
    // output contract (it prints only when epochs were profiled).
    // Touch the registry singletons first so their function-local
    // statics are constructed -- and therefore destroyed -- strictly
    // after this atexit handler runs.
    obs::metrics();
    obs::profiler();
    std::atexit(writeObservabilityOutputs);

    if (!any)
        return;
    if (!rotateMbValue.empty())
        traceRotateMb() = parseCount("--trace-rotate-mb", rotateMbValue);
    if (!intervalValue.empty())
        metricsIntervalEpochs() =
            parseCount("--metrics-interval", intervalValue);
    if (traceRotateMb() > 0 && traceOutPath().empty())
        fatal("--trace-rotate-mb requires --trace-out");
    if (metricsIntervalEpochs() > 0 && metricsOutPath().empty())
        fatal("--metrics-interval requires --metrics-out");
    if (!metricsExportCmdValue().empty() &&
        (metricsOutPath().empty() || metricsIntervalEpochs() == 0))
        fatal("--metrics-export-cmd requires --metrics-out and "
              "--metrics-interval (the NDJSON series is what gets "
              "piped)");
    if (!postmortemSpansValue.empty()) {
        const std::size_t n =
            parseCount("--postmortem-spans", postmortemSpansValue);
        if (n == 0)
            fatal("--postmortem-spans must be positive");
        obs::flightRecorder().setCapacity(n);
    }

    if (!postmortemOutPath().empty())
        obs::armFlightRecorder(postmortemOutPath());
    if (!traceOutPath().empty()) {
        if (traceRotateMb() > 0) {
            obs::StreamSinkConfig scfg;
            scfg.path = traceOutPath();
            scfg.rotateBytes = traceRotateMb() << 20;
            streamSink() = new obs::StreamingTraceSink(scfg);
            obs::tracer().setStreamSink(streamSink());
        }
        obs::tracer().setEnabled(true);
    }
    if (metricsIntervalEpochs() > 0)
        seriesWriter() = new obs::MetricSeriesWriter(metricsOutPath());
}

std::size_t
metricsInterval()
{
    return metricsIntervalEpochs();
}

obs::MetricSeriesWriter *
metricSeries()
{
    return seriesWriter();
}

bool
smokeMode()
{
    return smokeFlag();
}

std::size_t
benchThreads()
{
    return threadsCount();
}

std::uint64_t
benchSeed()
{
    return seedValue();
}

std::size_t
benchRacks()
{
    return racksValue();
}

double
benchCoreGbps()
{
    return coreGbpsValue();
}

double
benchOversub()
{
    return oversubValue();
}

std::size_t
benchPsShards()
{
    return psShardsValue();
}

std::size_t
benchStaleness()
{
    return stalenessValue();
}

const std::string &
metricsExportCmd()
{
    return metricsExportCmdValue();
}

void
applyFleetFlags(sim::ClusterConfig &cluster, std::size_t num_socs)
{
    const std::size_t racks = racksValue();
    if (racks <= 1)
        return;
    cluster.numRacks = racks;
    // Spread the boards evenly: the smallest rack width that hosts
    // every board of the requested SoC count.
    const std::size_t numBoards =
        (num_socs + cluster.socsPerBoard - 1) / cluster.socsPerBoard;
    cluster.boardsPerRack = (numBoards + racks - 1) / racks;
    cluster.coreBps = coreGbpsValue() * 1e9;
    cluster.coreOversub = oversubValue();
}

const std::string &
benchJsonPath()
{
    return benchJsonOutPath();
}

const std::string &
benchBaselinePath()
{
    return baselinePath();
}

const std::string &
benchProfileOutPath()
{
    return profileOutPathValue();
}

bool
writeBenchJson(const std::string &path, const BenchReport &report)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out.precision(17);
    out << "{\n"
        << "  \"bench\": \"" << report.bench << "\",\n"
        << "  \"seed\": " << report.seed << ",\n"
        << "  \"scale\": " << report.scale << ",\n"
        << "  \"runs\": [\n";
    for (std::size_t i = 0; i < report.runs.size(); ++i) {
        const BenchRun &r = report.runs[i];
        out << "    {\"threads\": " << r.threads
            << ", \"wall_seconds\": " << r.wallSeconds
            << ", \"epochs_trained\": " << r.epochsTrained
            << ", \"epochs_per_sec\": " << r.epochsPerSec
            << ", \"events_per_sec\": " << r.eventsPerSec
            << ", \"timeline_hash\": \"" << std::hex << r.timelineHash
            << std::dec << "\"";
        if (!r.label.empty())
            out << ", \"label\": \"" << r.label << "\"";
        // Optional profiler phase columns (informational; never read
        // by the --baseline regression comparison).
        if (r.hasPhases) {
            out << ", \"phase_compute_seconds\": "
                << r.phaseComputeSeconds
                << ", \"phase_sync_seconds\": " << r.phaseSyncSeconds
                << ", \"phase_stall_seconds\": "
                << r.phaseStallSeconds;
        }
        out << "}" << (i + 1 < report.runs.size() ? "," : "") << '\n';
    }
    out << "  ]\n}\n";
    return static_cast<bool>(out);
}

namespace {

/** Scan forward from `from` for `"key": <value token>`. */
bool
jsonValueAfter(const std::string &text, const std::string &key,
               std::size_t from, std::string &token, std::size_t &at)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t k = text.find(needle, from);
    if (k == std::string::npos)
        return false;
    std::size_t p = k + needle.size();
    while (p < text.size() && (text[p] == ' ' || text[p] == '"'))
        ++p;
    std::size_t e = p;
    while (e < text.size() && text[e] != ',' && text[e] != '}' &&
           text[e] != '\n' && text[e] != '"')
        ++e;
    token = text.substr(p, e - p);
    at = e;
    return true;
}

} // namespace

bool
readBenchJson(const std::string &path, BenchReport &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    out = BenchReport{};
    std::string tok;
    std::size_t pos = 0;
    if (jsonValueAfter(text, "bench", 0, tok, pos))
        out.bench = tok;
    if (jsonValueAfter(text, "seed", 0, tok, pos))
        out.seed = std::strtoull(tok.c_str(), nullptr, 10);
    if (jsonValueAfter(text, "scale", 0, tok, pos))
        out.scale = std::atof(tok.c_str());

    std::size_t cursor = text.find("\"runs\"");
    if (cursor == std::string::npos)
        return false;
    for (;;) {
        BenchRun r;
        if (!jsonValueAfter(text, "threads", cursor, tok, cursor))
            break;
        r.threads = std::strtoull(tok.c_str(), nullptr, 10);
        if (!jsonValueAfter(text, "wall_seconds", cursor, tok, cursor))
            return false;
        r.wallSeconds = std::atof(tok.c_str());
        if (!jsonValueAfter(text, "epochs_trained", cursor, tok, cursor))
            return false;
        r.epochsTrained = std::strtoull(tok.c_str(), nullptr, 10);
        if (!jsonValueAfter(text, "epochs_per_sec", cursor, tok, cursor))
            return false;
        r.epochsPerSec = std::atof(tok.c_str());
        if (!jsonValueAfter(text, "events_per_sec", cursor, tok, cursor))
            return false;
        r.eventsPerSec = std::atof(tok.c_str());
        if (!jsonValueAfter(text, "timeline_hash", cursor, tok, cursor))
            return false;
        r.timelineHash = std::strtoull(tok.c_str(), nullptr, 16);
        // Optional per-run label (fleet rows): consume it only when
        // it belongs to this row, i.e. precedes the next "threads".
        std::string ltok, ntok;
        std::size_t lat = 0, nat = 0;
        if (jsonValueAfter(text, "label", cursor, ltok, lat) &&
            (!jsonValueAfter(text, "threads", cursor, ntok, nat) ||
             lat < nat)) {
            r.label = ltok;
            cursor = lat;
        }
        // Optional profiler phase columns, same row-scoped rule.
        std::string ptok;
        std::size_t pat = 0;
        if (jsonValueAfter(text, "phase_compute_seconds", cursor, ptok,
                           pat) &&
            (!jsonValueAfter(text, "threads", cursor, ntok, nat) ||
             pat < nat)) {
            r.hasPhases = true;
            r.phaseComputeSeconds = std::atof(ptok.c_str());
            cursor = pat;
            if (jsonValueAfter(text, "phase_sync_seconds", cursor,
                               ptok, pat)) {
                r.phaseSyncSeconds = std::atof(ptok.c_str());
                cursor = pat;
            }
            if (jsonValueAfter(text, "phase_stall_seconds", cursor,
                               ptok, pat)) {
                r.phaseStallSeconds = std::atof(ptok.c_str());
                cursor = pat;
            }
        }
        out.runs.push_back(r);
    }
    return !out.runs.empty();
}

void
rejectUnknownFlags(int argc, char **argv, const char *passPrefix)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (passPrefix != nullptr && arg.rfind(passPrefix, 0) == 0)
            continue;
        std::fprintf(stderr, "[fatal] unknown flag: %s\n", argv[i]);
        std::exit(2);
    }
}

FaultPolicyFlags
parseFaultPolicyFlags(int &argc, char **argv)
{
    FaultPolicyFlags flags;
    struct Knob {
        const char *name;
        double *valueD;       //!< double-valued knobs
        std::size_t *valueN;  //!< count-valued knobs
    };
    const Knob knobs[] = {
        {"--sync-timeout", &flags.sync.timeoutS, nullptr},
        {"--sync-retries", nullptr, &flags.sync.maxRetries},
        {"--sync-backoff-base", &flags.sync.backoffBaseS, nullptr},
        {"--sync-backoff-max", &flags.sync.backoffMaxS, nullptr},
        {"--ckpt-retries", nullptr, &flags.checkpointMaxRetries},
        {"--ckpt-backoff", &flags.checkpointBackoffS, nullptr},
        {"--ckpt-replicas", nullptr, &flags.ckptReplicas},
        {"--ckpt-interval", nullptr, &flags.ckptIntervalEpochs},
        {"--phi-threshold", &flags.phiThreshold, nullptr},
        {"--phi-window", nullptr, &flags.phiWindow},
    };

    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        bool consumed = false;
        for (const Knob &k : knobs) {
            const std::string prefix = std::string(k.name) + "=";
            std::string value;
            if (arg.rfind(prefix, 0) == 0) {
                value = arg.substr(prefix.size());
            } else if (arg == k.name) {
                if (i + 1 >= argc)
                    fatal(k.name, " requires a value");
                value = argv[++i];
            } else {
                continue;
            }
            char *end = nullptr;
            const double parsed = std::strtod(value.c_str(), &end);
            if (value.empty() || end == nullptr || *end != '\0' ||
                parsed < 0.0) {
                fatal("bad value for ", k.name, ": '", value, "'");
            }
            if (k.valueD)
                *k.valueD = parsed;
            else
                *k.valueN = static_cast<std::size_t>(parsed);
            consumed = true;
            break;
        }
        if (!consumed)
            argv[out++] = argv[i];
    }
    argc = out;
    argv[argc] = nullptr;
    return flags;
}

const std::vector<Workload> &
paperWorkloads()
{
    // Smoke tier: one tiny workload so every bench binary finishes in
    // seconds under ctest while still exercising its full code path.
    static const std::vector<Workload> smoke = {
        {"LeNet5-FMNIST", "lenet5", "fmnist", 16},
    };
    if (smokeFlag())
        return smoke;
    static const std::vector<Workload> workloads = {
        {"MobileNet", "mobilenet_v1", "cifar10", 64},
        {"VGG11", "vgg11", "cifar10", 32},
        {"ResNet18", "resnet18", "cifar10", 32},
        {"VGG11-Celeba", "vgg11", "celeba", 32},
        {"ResNet18-Celeba", "resnet18", "celeba", 32},
        {"LeNet5-EMNIST", "lenet5", "emnist", 32},
        {"LeNet5-FMNIST", "lenet5", "fmnist", 32},
    };
    return workloads;
}

const Workload &
transferWorkload()
{
    static const Workload w = {"ResNet50-Finetune", "resnet50",
                               "cifar10", 32};
    return w;
}

double
benchScale()
{
    if (smokeFlag())
        return 0.05;
    static const double scale = [] {
        const char *env = std::getenv("SOCFLOW_BENCH_SCALE");
        if (!env)
            return 1.0;
        const double v = std::atof(env);
        return std::max(0.05, v);
    }();
    return scale;
}

std::size_t
scaledEpochs(std::size_t full)
{
    if (smokeFlag())
        return 1;
    const double scaled = static_cast<double>(full) * benchScale();
    return std::max<std::size_t>(3,
                                 static_cast<std::size_t>(scaled + 0.5));
}

core::SoCFlowConfig
oursConfig(const Workload &w, std::size_t num_socs,
           std::size_t num_groups)
{
    core::SoCFlowConfig cfg;
    cfg.modelFamily = w.model;
    cfg.numSocs = num_socs;
    cfg.numGroups = num_groups;
    cfg.groupBatch = w.batch;
    cfg.seed = seedValue(); // --seed, default 42: reproducible BENCH numbers
    applyFleetFlags(cfg.clusterTemplate, num_socs); // --racks et al.
    return cfg;
}

baselines::BaselineConfig
baselineConfig(const Workload &w, std::size_t num_socs)
{
    baselines::BaselineConfig cfg;
    cfg.modelFamily = w.model;
    cfg.numSocs = num_socs;
    cfg.globalBatch = w.batch;
    cfg.seed = seedValue(); // --seed, default 42
    return cfg;
}

const std::vector<std::string> &
suiteMethods()
{
    static const std::vector<std::string> methods = {
        "PS", "RING", "HiPress", "2D-Paral", "FedAvg", "T-FedAvg",
        "Ours"};
    return methods;
}

namespace {

/** Clone a math trajectory, substituting per-epoch time/energy. */
core::TrainResult
retimeTrajectory(const core::TrainResult &reference,
                 const std::string &method,
                 const core::EpochRecord &per_epoch)
{
    core::TrainResult out;
    out.method = method;
    out.epochs = reference.epochs;
    for (auto &e : out.epochs) {
        e.simSeconds = per_epoch.simSeconds;
        e.energyJoules = per_epoch.energyJoules;
        e.computeSeconds = per_epoch.computeSeconds;
        e.syncSeconds = per_epoch.syncSeconds;
        e.updateSeconds = per_epoch.updateSeconds;
    }
    return out;
}

} // namespace

SuiteResult
runSuite(const Workload &w, std::size_t num_socs,
         std::size_t max_epochs, bool include_local,
         const std::vector<float> *initial)
{
    SuiteResult suite;
    if (initial == nullptr &&
        loadSuiteCache(w, num_socs, max_epochs, include_local, suite))
        return suite;
    suite = SuiteResult{};
    suite.workload = w;
    suite.numSocs = num_socs;

    const std::size_t epochs = scaledEpochs(max_epochs);
    const std::size_t patience = 4;
    data::DataBundle bundle = data::makeDatasetByName(w.dataset);

    // 1. Exact-sync reference math via RING; this is also RING's run.
    baselines::RingTrainer ring(baselineConfig(w, num_socs), bundle,
                                initial);
    core::TrainResult ringResult =
        core::runTraining(ring, epochs, 0.0, patience);
    suite.referenceBestAcc = ringResult.bestTestAcc();
    // 97% relative target (the paper uses 99%): convergence on the
    // miniature synthetic datasets is noisier, so the band is widened
    // to keep the comparison about *time*, not accuracy jitter.
    suite.targetAcc = 0.97 * suite.referenceBestAcc;

    // 2. PS / HiPress / 2D-Paral reuse the reference trajectory and
    //    contribute their own per-epoch timing. Because the paper-
    //    scale factor makes per-epoch simulated time independent of
    //    the analog's size, the timing probe runs one epoch on a
    //    tiny stub dataset instead of a full pass.
    data::SyntheticParams stubParams =
        data::registryParams(w.dataset);
    stubParams.trainSamples = 64;
    stubParams.testSamples = 16;
    const data::DataBundle stub = data::makeSynthetic(stubParams);
    for (const char *method : {"PS", "HiPress", "2D-Paral"}) {
        auto trainer = baselines::makeBaseline(
            method, baselineConfig(w, num_socs), stub, initial);
        const core::EpochRecord one = trainer->runEpoch();
        MethodRun run;
        run.method = method;
        run.mathShared = true;
        run.result = retimeTrajectory(ringResult, method, one);
        suite.runs.push_back(std::move(run));
    }
    suite.runs.push_back({"RING", std::move(ringResult), false});

    // 3. Federated baselines. FedAvg needs more epochs to reach the
    //    same target (staleness), so it gets a larger budget.
    {
        baselines::FedAvgTrainer fed(baselineConfig(w, num_socs),
                                     bundle,
                                     baselines::FedAggregation::Star,
                                     initial);
        core::TrainResult fedResult = core::runTraining(
            fed, epochs + epochs / 3, suite.targetAcc, patience + 2);
        baselines::FedAvgTrainer tfed(baselineConfig(w, num_socs),
                                      stub,
                                      baselines::FedAggregation::Tree,
                                      initial);
        const core::EpochRecord one = tfed.runEpoch();
        MethodRun treeRun;
        treeRun.method = "T-FedAvg";
        treeRun.mathShared = true;
        treeRun.result = retimeTrajectory(fedResult, "T-FedAvg", one);
        suite.runs.push_back({"FedAvg", std::move(fedResult), false});
        suite.runs.push_back(std::move(treeRun));
    }

    // 4. SoCFlow. The paper groups 32 SoCs into 8 logical groups on
    //    a 50k-sample dataset; our datasets are ~30x smaller, which
    //    shifts the group-count knee left (Fig. 6), so the suites use
    //    groups of ~8 SoCs. Like FedAvg it gets budget headroom --
    //    its delayed aggregation needs a few more epochs on the
    //    miniature datasets.
    {
        const std::size_t groups = std::max<std::size_t>(
            1, num_socs / 8);
        core::SoCFlowTrainer ours(oursConfig(w, num_socs, groups),
                                  bundle, initial);
        suite.runs.push_back(
            {"Ours",
             core::runTraining(ours, epochs + epochs / 3,
                               suite.targetAcc, patience),
             false});
    }

    // 5. Optional single-SoC reference ("Local" accuracy column).
    if (include_local) {
        baselines::LocalTrainer local(baselineConfig(w, 1), bundle,
                                      sim::Device::SocCpu, initial);
        suite.local =
            core::runTraining(local, epochs, 0.0, patience);
    }
    if (initial == nullptr)
        storeSuiteCache(suite, max_epochs);
    return suite;
}

namespace {

std::string
cachePath(const Workload &w, std::size_t socs, std::size_t epochs)
{
    std::ostringstream oss;
    oss << ".bench_cache/" << w.key << '_' << socs << '_' << epochs
        << '_' << benchScale() << (smokeFlag() ? "_smoke" : "");
    if (seedValue() != 42)
        oss << "_s" << seedValue();
    oss << ".txt";
    return oss.str();
}

void
writeResult(std::ostream &out, const core::TrainResult &r,
            bool math_shared)
{
    out << "run " << r.method << ' ' << (math_shared ? 1 : 0) << ' '
        << r.epochs.size() << '\n';
    for (const auto &e : r.epochs) {
        out << e.simSeconds << ' ' << e.energyJoules << ' '
            << e.computeSeconds << ' ' << e.syncSeconds << ' '
            << e.updateSeconds << ' ' << e.trainLoss << ' '
            << e.trainAcc << ' ' << e.testAcc << '\n';
    }
}

bool
readResult(std::istream &in, core::TrainResult &r, bool &math_shared)
{
    std::string tag;
    std::size_t n = 0;
    int shared = 0;
    if (!(in >> tag >> r.method >> shared >> n) || tag != "run")
        return false;
    math_shared = shared != 0;
    r.epochs.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        auto &e = r.epochs[i];
        e.epoch = i;
        if (!(in >> e.simSeconds >> e.energyJoules >>
              e.computeSeconds >> e.syncSeconds >> e.updateSeconds >>
              e.trainLoss >> e.trainAcc >> e.testAcc))
            return false;
    }
    return true;
}

} // namespace

bool
loadSuiteCache(const Workload &w, std::size_t num_socs,
               std::size_t max_epochs, bool need_local,
               SuiteResult &out)
{
    std::ifstream in(cachePath(w, num_socs, max_epochs));
    if (!in)
        return false;
    SuiteResult suite;
    suite.workload = w;
    suite.numSocs = num_socs;
    std::size_t runs = 0;
    int hasLocal = 0;
    if (!(in >> suite.referenceBestAcc >> suite.targetAcc >> runs >>
          hasLocal))
        return false;
    if (need_local && !hasLocal)
        return false;
    for (std::size_t i = 0; i < runs; ++i) {
        MethodRun run;
        if (!readResult(in, run.result, run.mathShared))
            return false;
        run.method = run.result.method;
        suite.runs.push_back(std::move(run));
    }
    if (hasLocal) {
        core::TrainResult local;
        bool shared = false;
        if (!readResult(in, local, shared))
            return false;
        suite.local = std::move(local);
    }
    out = std::move(suite);
    inform("suite cache hit: ", w.key, " @ ", num_socs, " SoCs");
    return true;
}

void
storeSuiteCache(const SuiteResult &suite, std::size_t max_epochs)
{
    ::mkdir(".bench_cache", 0755);
    std::ofstream out(
        cachePath(suite.workload, suite.numSocs, max_epochs));
    if (!out)
        return;  // caching is best-effort
    out.precision(17);
    out << suite.referenceBestAcc << ' ' << suite.targetAcc << ' '
        << suite.runs.size() << ' ' << (suite.local ? 1 : 0) << '\n';
    for (const auto &run : suite.runs)
        writeResult(out, run.result, run.mathShared);
    if (suite.local)
        writeResult(out, *suite.local, false);
}

const MethodRun &
findRun(const SuiteResult &suite, const std::string &method)
{
    for (const auto &run : suite.runs)
        if (run.method == method)
            return run;
    fatal("method not present in suite: ", method);
}

} // namespace bench
} // namespace socflow
