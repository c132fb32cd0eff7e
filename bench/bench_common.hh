/**
 * @file
 * Shared infrastructure for the figure/table reproduction benches.
 *
 * Methodology (mirrors §4 of the paper):
 *  - every workload is a (model family, dataset analog) pair from
 *    Table 2, trained with the same global batch across methods;
 *  - convergence target = 99% of the exactly-synchronized reference's
 *    best test accuracy (the paper's "99% relative convergence");
 *  - PS / RING / HiPress / 2D-Paral share their SGD math (identical
 *    accuracy, as in Table 3), so the reference trajectory is
 *    computed once and each method contributes its own per-epoch
 *    simulated time/energy; FedAvg and SoCFlow run their own math.
 *
 * Set SOCFLOW_BENCH_SCALE (e.g. 0.3) to shrink epoch budgets during
 * development; the default of 1.0 reproduces the reported numbers.
 */

#ifndef SOCFLOW_BENCH_BENCH_COMMON_HH
#define SOCFLOW_BENCH_BENCH_COMMON_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "baselines/local.hh"
#include "core/socflow_trainer.hh"
#include "core/train_common.hh"
#include "data/synthetic.hh"

namespace socflow {

namespace obs {
class MetricSeriesWriter;
}

namespace bench {

/** One evaluation workload (a row of Table 2). */
struct Workload {
    std::string key;      //!< label used in the paper's figures
    std::string model;    //!< model family
    std::string dataset;  //!< dataset analog
    std::size_t batch = 32;  //!< global / per-group batch size
};

/**
 * Observability wiring shared by every bench binary. Recognizes
 *
 *   --trace-out=<path>        (or --trace-out <path>)
 *   --metrics-out=<path>      (or --metrics-out <path>)
 *   --trace-rotate-mb=<mb>    stream the trace instead of buffering:
 *                             rotated segments <base>.0.json,
 *                             <base>.1.json, ... each a valid Chrome
 *                             document capped near <mb> MiB
 *   --metrics-interval=<n>    turn --metrics-out into an NDJSON time
 *                             series, one snapshot line every n
 *                             trained epochs (harvest examples)
 *   --postmortem-out=<path>   arm the crash flight recorder; typed
 *                             failures dump a post-mortem JSON here
 *   --postmortem-spans=<n>    size the flight-recorder ring (spans
 *                             retained for the post-mortem; default
 *                             256, SOCFLOW_POSTMORTEM_SPANS env form
 *                             works for un-flagged binaries)
 *   --smoke                   smoke tier: one tiny workload, 1-epoch
 *                             budgets, bench scale pinned to minimum
 *                             (the ctest bench_smoke_* registrations)
 *   --threads=<n>             size the process-wide thread pool
 *                             (util::setGlobalThreads); default is
 *                             SOCFLOW_THREADS else all cores
 *   --seed=<n>                root seed for bench RNGs (default 42)
 *                             so committed BENCH numbers reproduce
 *                             run-to-run on the same machine
 *   --racks=<n>               fleet width: spread the SoCs across n
 *                             racks behind an inter-rack core
 *                             (default 1 = the paper's single-rack
 *                             server, bit-exact pre-fleet timing)
 *   --core-gbps=<gbps>        inter-rack core bandwidth (default
 *                             100); only meaningful with --racks > 1
 *   --oversub=<factor>        fat-tree core oversubscription: every
 *                             rack uplink runs at switch-bandwidth /
 *                             factor (default 1 = non-blocking core)
 *   --ps-shards=<n>           parameter-server shard count for the
 *                             sharded-PS benches (default 8; >= 1)
 *   --staleness=<n>           bounded-staleness limit for the PS
 *                             benches (default 4; 0 = synchronous)
 *   --metrics-export-cmd=<c>  after the NDJSON metric series is
 *                             written, pipe its lines to shell
 *                             command <c>'s stdin (requires
 *                             --metrics-out + --metrics-interval);
 *                             best-effort remote-export hook
 *   --bench-json=<path>       write the machine-readable throughput
 *                             report here (see writeBenchJson)
 *   --baseline=<path>         compare against a committed BENCH_*.json
 *                             and fail on >10% epochs/sec regression
 *                             (consumed by bench_e2e_throughput)
 *   --profile-out=<path>      write the critical-path profiler's
 *                             PerfReport JSON (obs/profiler.hh) at
 *                             exit; the "perf doctor" summary prints
 *                             to stderr regardless whenever the
 *                             profiler saw at least one epoch
 *
 * enables the process tracer when a trace path is given, and
 * registers an atexit hook that writes the Chrome trace_event JSON
 * (or closes the streaming sink) and/or the metrics dump when the
 * bench finishes. Consumed flags are removed from argv (argc is
 * updated) so benches with their own argument parsing -- including
 * google-benchmark's strict Initialize() -- never see them.
 */
void initBenchObservability(int &argc, char **argv);

/**
 * Exit 2, naming the argument, if anything is left in argv after the
 * flag parsers (initBenchObservability, parseFaultPolicyFlags) took
 * theirs: a misspelled flag is an error, never silently ignored.
 * Arguments starting with `passPrefix` (e.g. "--benchmark_" for the
 * google-benchmark binaries) are left for the caller's own parser.
 */
void rejectUnknownFlags(int argc, char **argv,
                        const char *passPrefix = nullptr);

/** --metrics-interval value (0 = plain end-of-run text dump). */
std::size_t metricsInterval();

/**
 * The NDJSON series writer created when both --metrics-out and
 * --metrics-interval were given; nullptr otherwise. Wire into
 * trace::HarvestConfig::metricSeries.
 */
obs::MetricSeriesWriter *metricSeries();

/** True when --smoke was given (ctest smoke tier). */
bool smokeMode();

/** --threads flag value (0 = not given). */
std::size_t benchThreads();

/** --seed flag value (default 42): root seed for bench RNGs. */
std::uint64_t benchSeed();

/** --racks flag value (default 1 = single-rack server). */
std::size_t benchRacks();

/** --core-gbps flag value (default 100). */
double benchCoreGbps();

/** --oversub flag value (default 1 = non-blocking core). */
double benchOversub();

/** --ps-shards flag value (default 8): parameter-server shard count. */
std::size_t benchPsShards();

/** --staleness flag value (default 4): bounded-staleness limit. */
std::size_t benchStaleness();

/** --metrics-export-cmd flag value (empty = no export hook). */
const std::string &metricsExportCmd();

/**
 * Apply the fleet flags to a cluster template: with --racks > 1 the
 * boards of `num_socs` SoCs are spread evenly across the racks and
 * the core bandwidth/oversubscription knobs are installed. A no-op
 * at the default single-rack setting, so oursConfig (which calls
 * this) keeps its pre-fleet configs bit-identical.
 */
void applyFleetFlags(sim::ClusterConfig &cluster, std::size_t num_socs);

/** --bench-json flag value (empty = not requested). */
const std::string &benchJsonPath();

/** --baseline flag value (empty = no regression comparison). */
const std::string &benchBaselinePath();

/** --profile-out flag value (empty = no profiler JSON requested). */
const std::string &benchProfileOutPath();

/** One measured thread configuration of a throughput bench. */
struct BenchRun {
    std::size_t threads = 1;
    double wallSeconds = 0.0;
    std::size_t epochsTrained = 0;
    double epochsPerSec = 0.0;  //!< simulated epochs per wall second
    double eventsPerSec = 0.0;  //!< trainer step events per wall second
    std::uint64_t timelineHash = 0;  //!< must match across same-label rows
    /** Scenario tag ("" = the default single-rack scenario; fleet
     *  rows carry e.g. "fleet-4rack"). Hash equality is only required
     *  within one label, and the regression anchor ignores labeled
     *  rows so pre-fleet baselines stay comparable. */
    std::string label;
    /** Optional per-phase breakdown from the critical-path profiler
     *  (simulated seconds over the run's epochs). Informational
     *  columns only: the --baseline regression comparison reads
     *  epochs/sec and never these, so committed BENCH_*.json files
     *  with and without them stay comparable. */
    bool hasPhases = false;
    double phaseComputeSeconds = 0.0;  //!< forward + backward
    double phaseSyncSeconds = 0.0;     //!< all sync/comm phases
    double phaseStallSeconds = 0.0;    //!< straggler stall residual
};

/**
 * Machine-readable throughput report: the committed BENCH_*.json
 * trajectory every later PR proves its speedup against.
 */
struct BenchReport {
    std::string bench;       //!< emitting binary, e.g. "bench_e2e_throughput"
    std::uint64_t seed = 42; //!< benchSeed() used for the run
    double scale = 1.0;      //!< benchScale() used for the run
    std::vector<BenchRun> runs;
};

/** Write a report as pretty-printed JSON. Returns false on I/O error. */
bool writeBenchJson(const std::string &path, const BenchReport &report);

/** Parse a report written by writeBenchJson. */
bool readBenchJson(const std::string &path, BenchReport &out);

/** Fault-handling knobs parsed from the command line. */
struct FaultPolicyFlags {
    /** Collective timeout/retry/backoff envelope
     *  (core::SoCFlowConfig::sync). */
    collectives::SyncPolicy sync;
    /** Checkpoint-write retries before a checkpoint is lost
     *  (trace::HarvestConfig::checkpointMaxRetries). */
    std::size_t checkpointMaxRetries = 3;
    /** First checkpoint retry backoff, seconds, doubling per retry
     *  (trace::HarvestConfig::checkpointBackoffS). */
    double checkpointBackoffS = 2.0;
    /** Phi-accrual suspicion threshold before a SoC is declared
     *  failed (core::SoCFlowConfig::phiThreshold). */
    double phiThreshold = 8.0;
    /** Heartbeat inter-arrival window of the failure detector
     *  (core::SoCFlowConfig::phiWindow). */
    std::size_t phiWindow = 32;
    /** Durable checkpoint replication factor
     *  (trace::HarvestConfig::ckptReplicas); 0 = legacy in-memory
     *  path, 2 survives the loss of any single rack. */
    std::size_t ckptReplicas = 0;
    /** Extra durable checkpoint every N trained epochs
     *  (trace::HarvestConfig::ckptIntervalEpochs); 0 = only on
     *  preempt/suspend. */
    std::size_t ckptIntervalEpochs = 0;
};

/**
 * Parse the fault-policy flags shared by the resilience examples:
 *
 *   --sync-timeout=<seconds>       per-attempt sync stall
 *   --sync-retries=<n>             retries before the ring degrades
 *   --sync-backoff-base=<seconds>  first retry backoff (doubles)
 *   --sync-backoff-max=<seconds>   backoff ceiling
 *   --ckpt-retries=<n>             checkpoint-write retry budget
 *   --ckpt-backoff=<seconds>       first checkpoint retry backoff
 *   --ckpt-replicas=<k>            durable checkpoint copies spread
 *                                  across failure domains (0 = off)
 *   --ckpt-interval=<epochs>       durable checkpoint every N epochs
 *   --phi-threshold=<phi>          failure-detector suspicion level
 *                                  that declares a SoC failed
 *   --phi-window=<n>               heartbeat history window of the
 *                                  phi-accrual detector
 *
 * Both `--flag=value` and `--flag value` forms are accepted;
 * consumed flags are removed from argv (argc is updated). Returned
 * defaults match SyncPolicy / HarvestConfig when a flag is absent.
 */
FaultPolicyFlags parseFaultPolicyFlags(int &argc, char **argv);

/** The seven from-scratch workloads of Table 2 (in figure order). */
const std::vector<Workload> &paperWorkloads();

/** The transfer-learning workload (ResNet-50, CINIC-10 -> CIFAR). */
const Workload &transferWorkload();

/** SOCFLOW_BENCH_SCALE environment knob (default 1.0, min 0.05). */
double benchScale();

/** Scale an epoch budget: max(3, round(full * benchScale())). */
std::size_t scaledEpochs(std::size_t full);

/** Default SoCFlow configuration for a workload at a SoC count. */
core::SoCFlowConfig oursConfig(const Workload &w, std::size_t num_socs,
                               std::size_t num_groups);

/** Default baseline configuration for a workload at a SoC count. */
baselines::BaselineConfig baselineConfig(const Workload &w,
                                         std::size_t num_socs);

/** One method's outcome within a suite. */
struct MethodRun {
    std::string method;
    core::TrainResult result;
    /** True when the math trajectory was shared from the reference
     *  (timing/energy are still this method's own). */
    bool mathShared = false;
};

/** Everything measured for one workload at one SoC count. */
struct SuiteResult {
    Workload workload;
    std::size_t numSocs = 0;
    double referenceBestAcc = 0.0;  //!< exact-sync best accuracy
    double targetAcc = 0.0;         //!< 99% relative target
    std::vector<MethodRun> runs;
    /** Single-SoC CPU reference ("Local" column), when requested. */
    std::optional<core::TrainResult> local;
};

/** Methods covered by runSuite, in the paper's column order. */
const std::vector<std::string> &suiteMethods();

/**
 * Run every method on one workload.
 * @param num_socs cluster slice size (32 in most figures).
 * @param max_epochs full-scale epoch cap (scaled by benchScale()).
 * @param include_local also train the single-SoC reference.
 * @param initial optional pre-trained weights (transfer learning).
 */
SuiteResult runSuite(const Workload &w, std::size_t num_socs,
                     std::size_t max_epochs, bool include_local = false,
                     const std::vector<float> *initial = nullptr);

/** Find a method's run inside a suite result (fatal if missing). */
const MethodRun &findRun(const SuiteResult &suite,
                         const std::string &method);

/**
 * On-disk cache so sibling benches (fig08/fig09/table3) share one
 * suite computation instead of re-running identical math. Entries
 * are keyed by (workload, socs, epochs, bench scale) and stored
 * under .bench_cache/ next to the build. Delete the directory to
 * force recomputation.
 */
bool loadSuiteCache(const Workload &w, std::size_t num_socs,
                    std::size_t max_epochs, bool need_local,
                    SuiteResult &out);

/** Persist a suite result for sibling benches. */
void storeSuiteCache(const SuiteResult &suite,
                     std::size_t max_epochs);

} // namespace bench
} // namespace socflow

#endif // SOCFLOW_BENCH_BENCH_COMMON_HH
