/**
 * @file
 * Whole-fleet crash-restart recovery, end to end (DESIGN.md ch. 13).
 *
 * A 2-rack fleet trains with interval checkpoints replicated across
 * failure domains (src/ckpt). Mid-epoch, a RackPowerLoss wipes every
 * machine's volatile state -- and, to make the day properly bad, the
 * rack holding the primary checkpoint copy loses its durable storage
 * too. The fleet restarts from the nearest surviving replica and
 * finishes the job; the report shows the lost work (RPO) and the
 * priced restore latency.
 *
 * The run then proves the determinism invariant the restart story
 * rests on: a fresh trainer resumed from the restored replica bytes
 * must replay the remaining epochs to the SAME timeline hash and
 * bit-identical weights as one resumed from the original checkpoint
 * blob. Both hashes print as "timeline hash:" lines --
 * run_all.sh --crash-restart diffs them, and the binary itself exits
 * non-zero if they (or any weight) differ.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/crash_restart
 *
 * --ckpt-replicas=<k> sets the replication factor (default 2: the
 * copies span both racks, so an acked checkpoint survives either),
 * --ckpt-interval=<epochs> the durable-write cadence (the RPO bound).
 */

#include <cstdio>
#include <cstdint>
#include <vector>

#include "bench_common.hh"
#include "ckpt/replicated_store.hh"
#include "core/socflow_trainer.hh"
#include "data/synthetic.hh"
#include "fault/fault.hh"
#include "sim/cluster.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace socflow;

namespace {

data::DataBundle
exampleBundle()
{
    data::SyntheticParams p;
    p.name = "crash-restart";
    p.classes = 4;
    p.channels = 1;
    p.height = 8;
    p.width = 8;
    p.trainSamples = 512;
    p.testSamples = 128;
    p.noise = 0.3;
    p.seed = 7;
    return data::makeSynthetic(p);
}

core::SoCFlowConfig
exampleConfig(const sim::FleetTopology &topo)
{
    core::SoCFlowConfig cfg;
    cfg.modelFamily = "mlp";
    cfg.numSocs = topo.numSocs();
    cfg.numGroups = 4;
    cfg.groupBatch = 16;
    cfg.sgd.learningRate = 0.05;
    cfg.clusterTemplate = sim::fleetClusterConfig(topo);
    return cfg;
}

/** Resume a FRESH trainer from `bytes` and train `epochs` more. */
struct TailResult {
    std::uint64_t timelineHash = 0;
    std::vector<float> weights;
};

TailResult
finishFrom(const core::SoCFlowConfig &cfg,
           const std::vector<std::uint8_t> &bytes, int epochs)
{
    data::DataBundle bundle = exampleBundle();
    core::SoCFlowTrainer trainer(cfg, bundle);
    trainer.loadCheckpoint(bytes);
    for (int e = 0; e < epochs; ++e)
        trainer.runEpoch();
    return TailResult{trainer.timelineHash(), trainer.globalWeights()};
}

} // namespace

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Warn);
    bench::initBenchObservability(argc, argv);
    const bench::FaultPolicyFlags policy =
        bench::parseFaultPolicyFlags(argc, argv);
    bench::rejectUnknownFlags(argc, argv);
    const std::size_t replicas =
        policy.ckptReplicas > 0 ? policy.ckptReplicas : 2;
    const std::size_t interval =
        policy.ckptIntervalEpochs > 0 ? policy.ckptIntervalEpochs : 2;

    const sim::FleetTopology topo{2, 3, 2};
    const core::SoCFlowConfig cfg = exampleConfig(topo);
    const int kCrashEpoch = 5;
    const int kTotalEpochs = 10;
    const int kTailEpochs = 4;

    // ---- the day: train, checkpoint on the interval, lose a rack.
    data::DataBundle bundle = exampleBundle();
    core::SoCFlowTrainer trainer(cfg, bundle);

    fault::FaultSpec outage;
    outage.kind = fault::FaultKind::RackPowerLoss;
    outage.epoch = kCrashEpoch;
    outage.step = 1;
    outage.phase = fault::FaultPhase::Wave1; // mid-epoch, not a tidy boundary
    outage.board = 0;                        // rack id
    outage.count = topo.racks;            // the whole fleet goes dark
    fault::FaultPlan plan;
    plan.add(outage);
    fault::FaultInjector injector(plan);
    trainer.attachFaultInjector(&injector);

    ckpt::CkptStoreConfig sc;
    sc.replicas = replicas;
    sc.faults = &injector;
    ckpt::ReplicatedCkptStore store(trainer.clusterModel(), sc);

    std::vector<std::uint8_t> lastBlob;
    std::size_t lostWork = 0, tornCopies = 0;
    double writeSeconds = 0.0, restoreSeconds = 0.0;
    sim::SocId restoredFrom = 0;
    std::vector<std::uint8_t> restoredBytes;
    std::vector<std::uint8_t> preCrashBlob;

    for (int e = 0; e < kTotalEpochs; ++e) {
        const core::EpochRecord rec = trainer.runEpoch();
        if (rec.powerLost) {
            // Power is gone fleet-wide AND the primary copy's rack
            // lost its durable storage: only the cross-rack replica
            // of the acked checkpoint remains.
            preCrashBlob = lastBlob; // post-restore writes will
                                     // overwrite lastBlob
            store.loseRack(store.placement().front().rack);
            const ckpt::RestoreResult r = store.restore(0);
            restoredBytes = r.bytes;
            restoredFrom = r.replicaSoc;
            restoreSeconds = r.restoreSeconds;
            tornCopies = r.tornCopies;
            lostWork = trainer.restoreAfterPowerLoss(r.bytes);
            continue;
        }
        if (trainer.epochsDone() % interval == 0) {
            lastBlob = trainer.saveCheckpoint();
            const ckpt::WriteReceipt w =
                store.write(trainer.epochsDone(), lastBlob);
            writeSeconds += w.writeSeconds;
            if (!w.acked)
                warn("checkpoint write below quorum at epoch ",
                     trainer.epochsDone());
        }
    }

    Table t("Crash-restart day (k=" + std::to_string(replicas) +
            ", interval " + std::to_string(interval) + " epochs)");
    t.setHeader({"", "value"});
    t.addRow({"fleet", std::to_string(topo.racks) + " racks x " +
                           std::to_string(topo.boardsPerRack) +
                           " boards x " +
                           std::to_string(topo.socsPerBoard) + " SoCs"});
    t.addRow({"epochs trained", std::to_string(trainer.epochsDone())});
    t.addRow({"final test acc",
              formatDouble(100.0 * trainer.testAccuracy(), 1) + "%"});
    t.addRow({"replica sites", std::to_string(store.placement().size())});
    t.addRow({"surviving copies (end of day)",
              std::to_string(store.survivingCopies())});
    t.addRow({"restored from SoC", std::to_string(restoredFrom)});
    t.addRow({"torn copies discarded", std::to_string(tornCopies)});
    t.addRow({"lost work (epochs, RPO)", std::to_string(lostWork)});
    t.addRow({"checkpoint write time", formatDuration(writeSeconds)});
    t.addRow({"restore latency", formatDuration(restoreSeconds)});
    t.print();

    if (restoredBytes.empty()) {
        std::fprintf(stderr,
                     "FAIL: the rack power loss never fired, nothing "
                     "was restored\n");
        return 1;
    }
    if (lostWork > interval) {
        std::fprintf(stderr,
                     "FAIL: RPO %zu exceeds the checkpoint interval "
                     "%zu\n",
                     lostWork, interval);
        return 1;
    }

    if (restoredBytes != preCrashBlob) {
        std::fprintf(stderr,
                     "FAIL: the surviving replica is not bit-identical "
                     "to the checkpoint that was written\n");
        return 1;
    }

    // ---- the invariant: resuming from the restored replica replays
    // bit-exactly against resuming from the original blob.
    const TailResult resumed =
        finishFrom(cfg, restoredBytes, kTailEpochs);
    const TailResult reference =
        finishFrom(cfg, preCrashBlob, kTailEpochs);

    std::printf("timeline hash: %016llx (resumed from replica)\n",
                static_cast<unsigned long long>(resumed.timelineHash));
    std::printf("timeline hash: %016llx (resumed from original blob)\n",
                static_cast<unsigned long long>(reference.timelineHash));

    if (resumed.timelineHash != reference.timelineHash) {
        std::fprintf(stderr,
                     "FAIL: resumed timeline diverged from the "
                     "uninterrupted reference\n");
        return 1;
    }
    if (resumed.weights != reference.weights) {
        std::fprintf(stderr,
                     "FAIL: resumed weights are not bit-identical to "
                     "the reference\n");
        return 1;
    }
    std::printf("crash-restart invariant holds: resumed run is "
                "bit-exact with the uninterrupted reference\n");
    return 0;
}
