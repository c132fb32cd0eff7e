/**
 * @file
 * Co-location scenario: harvest a 24-hour tidal day on a 60-SoC
 * server (the workflow of Fig. 1). Cloud-gaming demand follows the
 * diurnal trace; the global scheduler trains whenever enough SoCs
 * are idle, checkpoints and preempts whole logical groups when user
 * demand returns, and resumes overnight.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/harvest_day
 *
 * Pass --trace-out=<path> / --metrics-out=<path> to export the
 * Chrome trace_event timeline and the metrics dump; add
 * --trace-rotate-mb=<mb> to stream the trace into bounded rotated
 * segments, --metrics-interval=<n> for an NDJSON metric time series
 * (one snapshot every n trained epochs), and --postmortem-out=<path>
 * to arm the crash flight recorder. The collective sync and
 * checkpoint retry envelopes are tunable via --sync-timeout,
 * --sync-retries, --sync-backoff-base, --sync-backoff-max,
 * --ckpt-retries and --ckpt-backoff (see
 * bench::parseFaultPolicyFlags).
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/socflow_trainer.hh"
#include "data/synthetic.hh"
#include "trace/harvest.hh"
#include "trace/tidal.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace socflow;

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Warn);
    bench::initBenchObservability(argc, argv);
    const bench::FaultPolicyFlags policy =
        bench::parseFaultPolicyFlags(argc, argv);
    bench::rejectUnknownFlags(argc, argv);

    // The job: train a LeNet on the EMNIST analog overnight so the
    // refreshed input-method model ships in the morning.
    data::DataBundle bundle = data::makeDatasetByName("emnist");
    core::SoCFlowConfig cfg;
    cfg.modelFamily = "lenet5";
    cfg.numSocs = 32;
    cfg.numGroups = 8;
    cfg.groupBatch = 32;
    cfg.sync = policy.sync;
    cfg.phiThreshold = policy.phiThreshold;
    cfg.phiWindow = policy.phiWindow;
    core::SoCFlowTrainer trainer(cfg, bundle);

    // The server's day: 60 SoCs of cloud-gaming demand; training may
    // only use SoCs the games do not.
    trace::TidalConfig tcfg;
    tcfg.numSocs = 32;
    tcfg.slotMinutes = 30.0;
    trace::TidalTrace trace(tcfg);

    trace::HarvestConfig hcfg;
    hcfg.socsPerGroup = 4;
    hcfg.checkpointMaxRetries = policy.checkpointMaxRetries;
    hcfg.checkpointBackoffS = policy.checkpointBackoffS;
    hcfg.metricsSnapshotEvery = bench::metricsInterval();
    hcfg.metricSeries = bench::metricSeries();

    const trace::HarvestReport report =
        trace::runHarvestDay(trainer, cfg, trace, hcfg);

    Table t("A harvested day (scheduler events)");
    t.setHeader({"hour", "idle-socs", "event", "active-groups"});
    const char *names[] = {"train", "preempt", "suspend", "resume",
                           "crash"};
    std::size_t shown = 0;
    for (const auto &ev : report.timeline) {
        const bool interesting =
            ev.kind != trace::HarvestEvent::Kind::Train ||
            shown % 6 == 0;  // sample the routine training slots
        ++shown;
        if (!interesting)
            continue;
        t.addRow({formatDouble(ev.hour, 1),
                  std::to_string(ev.idleSocs),
                  names[static_cast<int>(ev.kind)],
                  std::to_string(ev.activeGroups)});
    }
    t.print();

    std::printf("\nepochs trained: %zu  (%.1f simulated hours)\n",
                report.epochsTrained, report.trainingHours);
    std::printf("preemptions: %zu, suspensions: %zu, checkpoints: "
                "%zu\n",
                report.preemptions, report.suspensions,
                report.checkpointsTaken);
    std::printf("model accuracy at the end of the day: %.1f%%\n",
                100.0 * report.finalTestAcc);
    // Stable one-line fingerprint: run_all.sh --profile diffs this
    // between profiled and SOCFLOW_PROFILE=0 runs to prove the
    // profiler never perturbs the simulation.
    std::printf("timeline hash: %016llx\n",
                static_cast<unsigned long long>(
                    report.timelineHash));
    return 0;
}
