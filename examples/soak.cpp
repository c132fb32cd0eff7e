/**
 * @file
 * Soak test: a full harvested day under injected faults.
 *
 * Runs the harvest_day scenario (LeNet on the EMNIST analog, 32 SoCs,
 * 8 logical groups, 24-hour tidal demand) twice with identical seeds:
 * once fault-free and once against a deterministic FaultPlan that
 * crashes a SoC mid-training, kills another mid-AllReduce wave,
 * crashes a group leader, corrupts gradient chunks, degrades a board
 * NIC, slows a straggler, fails a burst of checkpoint writes, cuts a
 * PCB board off the switch for a few epochs (partition -> quorum
 * fencing -> heal) and brings a crashed SoC back (rejoin + catch-up).
 * The comparison shows the resilience claim end to end: the faulted
 * day finishes with accuracy within noise of the clean day, every
 * fault surfaces in the recovery counters (wave resumes, leader
 * elections, chunk retransmits, partitions, rejoins), checkpoint
 * failures are absorbed by the retry envelope, and any epoch where no
 * partition side held quorum is reported as *paused* -- state
 * preserved, training resumed on heal -- never as a failed epoch.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/soak
 *
 * Pass --trace-out=<path> to export the Chrome trace_event timeline
 * (crash-recovery spans included), --metrics-out=<path> for the
 * fault/retry counters. Long soaks stream instead of buffering:
 * --trace-rotate-mb=<mb> rotates the trace into bounded segments,
 * --metrics-interval=<n> turns the metrics dump into an NDJSON time
 * series (one snapshot every n trained epochs), and
 * --postmortem-out=<path> arms the crash flight recorder. The
 * sync/checkpoint retry envelopes are tunable: --sync-timeout,
 * --sync-retries, --sync-backoff-base, --sync-backoff-max,
 * --ckpt-retries, --ckpt-backoff, and the failure detector via
 * --phi-threshold / --phi-window (see bench::parseFaultPolicyFlags).
 *
 * Fleet soaks: --racks=<n> spreads the same 32 SoCs across n racks
 * behind an inter-rack core (--core-gbps / --oversub shape it), and
 * the fault plan gains a rack cut -- rack 0 loses its uplink for two
 * epochs, the fleet-scale partition analogue (DESIGN.md ch. 10) --
 * exercising quorum, parking, and heal at rack granularity.
 *
 * A third leg replays the same day with a whole-rack power loss
 * mid-epoch against the replicated checkpoint store (--ckpt-replicas
 * copies spread across failure domains, --ckpt-interval epochs
 * between durable writes): the fleet restarts from the nearest
 * surviving replica and the table reports the lost-work epochs (RPO)
 * and the priced restore latency (DESIGN.md ch. 13).
 *
 * The day ends with a sharded parameter-server soak (--ps-shards /
 * --staleness shape it): the same cluster runs ShardedPsTrainer clean
 * and then against a PS-focused plan -- a shard-host crash
 * (generation-fenced failover off the chain replica), a board
 * partition, a corrupt-push burst (CRC retransmits), and a rejoin --
 * and reports the failover/fencing/retransmit counters next to the
 * clean run (DESIGN.md ch. 11).
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/socflow_trainer.hh"
#include "data/synthetic.hh"
#include "fault/fault.hh"
#include "ps/sharded_ps.hh"
#include "sim/cluster.hh"
#include "trace/harvest.hh"
#include "trace/tidal.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace socflow;

namespace {

/** One harvested day; `faults` == nullptr runs fault-free.
 *  ckpt_replicas > 0 arms the replicated durable checkpoint store
 *  (failure-domain spread + interval checkpoints), enabling
 *  whole-fleet restart after a RackPowerLoss. */
trace::HarvestReport
runDay(const trace::TidalTrace &tidal, fault::FaultInjector *faults,
       const bench::FaultPolicyFlags &policy,
       std::size_t ckpt_replicas = 0, std::size_t ckpt_interval = 0)
{
    data::DataBundle bundle = data::makeDatasetByName("emnist");
    core::SoCFlowConfig cfg;
    cfg.modelFamily = "lenet5";
    cfg.numSocs = 32;
    cfg.numGroups = 8;
    cfg.groupBatch = 32;
    cfg.sync = policy.sync;
    cfg.phiThreshold = policy.phiThreshold;
    cfg.phiWindow = policy.phiWindow;
    // --racks / --core-gbps / --oversub spread the same SoCs across
    // a fleet; the single-rack default is bit-identical to before.
    bench::applyFleetFlags(cfg.clusterTemplate, cfg.numSocs);
    core::SoCFlowTrainer trainer(cfg, bundle);

    trace::HarvestConfig hcfg;
    hcfg.socsPerGroup = 4;
    hcfg.faults = faults;
    hcfg.checkpointMaxRetries = policy.checkpointMaxRetries;
    hcfg.checkpointBackoffS = policy.checkpointBackoffS;
    hcfg.metricsSnapshotEvery = bench::metricsInterval();
    hcfg.metricSeries = bench::metricSeries();
    hcfg.ckptReplicas = ckpt_replicas;
    hcfg.ckptIntervalEpochs = ckpt_interval;
    return trace::runHarvestDay(trainer, cfg, tidal, hcfg);
}

/** Tallies from one sharded-PS soak leg. */
struct PsSoakResult {
    double testAcc = 0.0;
    std::size_t epochs = 0;
    std::size_t pausedEpochs = 0;
    std::uint64_t timelineHash = 0;
    std::size_t acked = 0;
    std::size_t applied = 0;
    std::size_t blocks = 0;
    std::size_t fenced = 0;
    std::size_t retransmits = 0;
    std::size_t drops = 0;
    std::size_t failovers = 0;
    std::size_t rebalances = 0;
    std::size_t maxAge = 0;
};

/** One sharded-PS soak leg; `plan` == nullptr runs fault-free. */
PsSoakResult
runPsSoak(const fault::FaultPlan *plan,
          const bench::FaultPolicyFlags &policy, int epochs)
{
    data::DataBundle bundle = data::makeDatasetByName("emnist");
    ps::ShardedPsConfig cfg;
    cfg.modelFamily = "lenet5";
    cfg.numSocs = 32;
    cfg.numShards = bench::benchPsShards();
    cfg.staleness = bench::benchStaleness();
    cfg.globalBatch = 32;
    // Stale gradients amplify heavy momentum into oscillation at this
    // scale; plain SGD keeps the async runs converging.
    cfg.sgd.momentum = 0.0;
    cfg.sync = policy.sync;
    bench::applyFleetFlags(cfg.clusterTemplate, cfg.numSocs);
    ps::ShardedPsTrainer trainer(cfg, bundle);
    fault::FaultInjector injector(plan ? *plan : fault::FaultPlan{});
    if (plan)
        trainer.attachFaultInjector(&injector);
    PsSoakResult r;
    for (int e = 0; e < epochs; ++e) {
        const core::EpochRecord rec = trainer.runEpoch();
        if (rec.paused)
            ++r.pausedEpochs;
    }
    r.testAcc = trainer.testAccuracy();
    r.epochs = trainer.epochsDone();
    r.timelineHash = trainer.timelineHash();
    r.acked = trainer.pushesAcked();
    r.applied = trainer.pushesApplied();
    r.blocks = trainer.stalenessBlocks();
    r.fenced = trainer.fencedPushes();
    r.retransmits = trainer.retransmitsTotal();
    r.drops = trainer.syncFailuresTotal();
    r.failovers = trainer.failoversTotal();
    r.rebalances = trainer.rebalancesTotal();
    r.maxAge = trainer.maxSnapshotAgeAtCompute();
    return r;
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

    trace::TidalConfig tcfg;
    tcfg.numSocs = 32;
    tcfg.slotMinutes = 30.0;
    trace::TidalTrace tidal(tcfg);

    // The fault schedule: seed-generated NIC degrade + straggler +
    // checkpoint-write burst, plus one hand-placed SoC crash early
    // enough that every run hits it.
    fault::FaultPlanConfig pcfg;
    pcfg.horizonEpochs = 24;
    pcfg.numSocs = 32;
    pcfg.crashes = 0;  // placed explicitly below
    pcfg.seed = 2024;
    fault::FaultPlan plan = fault::FaultPlan::random(pcfg);
    fault::FaultSpec crash;
    crash.kind = fault::FaultKind::SocCrash;
    crash.epoch = 4;
    crash.soc = 2;
    plan.add(crash);
    // Step-granular faults, hand-placed so every soak exercises the
    // mid-wave resume and leader re-election paths (see DESIGN.md).
    fault::FaultSpec midwave;
    midwave.kind = fault::FaultKind::SocCrashMidWave;
    midwave.epoch = 6;
    midwave.step = 1;
    midwave.phase = fault::FaultPhase::Wave1;
    midwave.soc = 9;
    midwave.progress = 0.5;
    plan.add(midwave);
    // Group 0 is never preempted (minGroups), so its leader -- soc 0
    // until an election promotes someone -- is a reliable target.
    fault::FaultSpec leader;
    leader.kind = fault::FaultKind::LeaderCrash;
    leader.epoch = 8;
    leader.step = 2;
    leader.phase = fault::FaultPhase::LeaderRing;
    leader.soc = 0;
    plan.add(leader);
    fault::FaultSpec corrupt;
    corrupt.kind = fault::FaultKind::GradCorrupt;
    corrupt.epoch = 10;
    corrupt.step = 1;
    corrupt.phase = fault::FaultPhase::Wave2;
    corrupt.soc = 5;
    corrupt.count = 2;
    plan.add(corrupt);
    // Membership churn: cut one PCB board off the switch for two
    // epochs (its groups pause behind the generation fence, the
    // majority trains on, the heal folds them back in), then bring
    // the epoch-4 crash victim back for the rejoin catch-up path.
    fault::FaultSpec partition;
    partition.kind = fault::FaultKind::BoardPartition;
    partition.epoch = 12;
    partition.board = 3;
    partition.durationEpochs = 2;
    plan.add(partition);
    fault::FaultSpec rejoin;
    rejoin.kind = fault::FaultKind::SocRejoin;
    rejoin.epoch = 16;
    rejoin.soc = 2;
    plan.add(rejoin);
    // On a fleet, also cut a whole rack's uplink into the core --
    // the rack-granular analogue of the board partition above, same
    // quorum/park/heal path (DESIGN.md ch. 10). Rack 0 is always
    // fully populated, so the cut span never names a missing board.
    if (bench::benchRacks() > 1) {
        sim::ClusterConfig fleet;
        bench::applyFleetFlags(fleet, tcfg.numSocs);
        plan.add(fault::rackCut(0, fleet.boardsPerRack, 18, 2));
    }

    Table sched("Fault schedule");
    sched.setHeader(
        {"epoch", "step", "phase", "kind", "target", "factor", "window"});
    for (const auto &s : plan.specs()) {
        const bool isBoard =
            s.kind == fault::FaultKind::LinkDegrade ||
            s.kind == fault::FaultKind::BoardPartition ||
            s.kind == fault::FaultKind::SwitchPartition;
        sched.addRow({std::to_string(s.epoch), std::to_string(s.step),
                      fault::faultPhaseName(s.phase),
                      fault::faultKindName(s.kind),
                      isBoard ? "board " + std::to_string(s.board)
                              : "soc " + std::to_string(s.soc),
                      formatDouble(s.factor, 2),
                      std::to_string(s.durationEpochs)});
    }
    sched.print();

    std::printf("\n== clean day ==\n");
    const trace::HarvestReport clean = runDay(tidal, nullptr, policy);

    std::printf("== faulted day ==\n");
    fault::FaultInjector injector(plan);
    const trace::HarvestReport faulted =
        runDay(tidal, &injector, policy);

    Table t("Soak: clean vs faulted harvested day");
    t.setHeader({"", "clean", "faulted"});
    t.addRow({"epochs trained", std::to_string(clean.epochsTrained),
              std::to_string(faulted.epochsTrained)});
    t.addRow({"final test acc",
              formatDouble(100.0 * clean.finalTestAcc, 1) + "%",
              formatDouble(100.0 * faulted.finalTestAcc, 1) + "%"});
    t.addRow({"checkpoints taken",
              std::to_string(clean.checkpointsTaken),
              std::to_string(faulted.checkpointsTaken)});
    t.addRow({"checkpoint retries",
              std::to_string(clean.checkpointRetries),
              std::to_string(faulted.checkpointRetries)});
    t.addRow({"checkpoints lost",
              std::to_string(clean.checkpointsLost),
              std::to_string(faulted.checkpointsLost)});
    t.addRow({"crash recoveries",
              std::to_string(clean.crashRecoveries),
              std::to_string(faulted.crashRecoveries)});
    t.addRow({"recovery time",
              formatDuration(clean.recoverySeconds),
              formatDuration(faulted.recoverySeconds)});
    t.addRow({"wave resumes", std::to_string(clean.waveResumes),
              std::to_string(faulted.waveResumes)});
    t.addRow({"leader elections",
              std::to_string(clean.leaderElections),
              std::to_string(faulted.leaderElections)});
    t.addRow({"grad corrupt detected",
              std::to_string(clean.gradCorruptDetected),
              std::to_string(faulted.gradCorruptDetected)});
    t.addRow({"chunks retransmitted",
              std::to_string(clean.chunksRetransmitted),
              std::to_string(faulted.chunksRetransmitted)});
    t.addRow({"sync failures", std::to_string(clean.syncFailures),
              std::to_string(faulted.syncFailures)});
    t.addRow({"partitions handled",
              std::to_string(clean.partitions),
              std::to_string(faulted.partitions)});
    t.addRow({"SoCs rejoined", std::to_string(clean.rejoins),
              std::to_string(faulted.rejoins)});
    t.addRow({"stale msgs fenced",
              std::to_string(clean.fencedStaleMsgs),
              std::to_string(faulted.fencedStaleMsgs)});
    t.addRow({"epochs paused (no quorum)",
              std::to_string(clean.pausedEpochs),
              std::to_string(faulted.pausedEpochs)});
    t.print();

    const double delta =
        100.0 * (clean.finalTestAcc - faulted.finalTestAcc);
    std::printf("\naccuracy delta (clean - faulted): %.1f pp\n", delta);
    for (const auto &ev : faulted.timeline) {
        if (ev.kind == trace::HarvestEvent::Kind::Crash) {
            std::printf("crash recovered at hour %.1f "
                        "(%zu groups continue)\n",
                        ev.hour, ev.activeGroups);
        }
    }
    std::printf("timeline hash (faulted day): %016llx\n",
                static_cast<unsigned long long>(faulted.timelineHash));
    if (faulted.crashRecoveries == 0)
        warn("soak expected at least one crash recovery");
    if (faulted.waveResumes == 0)
        warn("soak expected at least one mid-wave resume");
    if (faulted.leaderElections == 0)
        warn("soak expected at least one leader re-election");
    if (faulted.partitions == 0)
        warn("soak expected at least one partition");
    if (faulted.rejoins == 0)
        warn("soak expected at least one SoC rejoin");
    if (faulted.pausedEpochs > 0) {
        // Quorum loss pauses training; it is not a failed day. The
        // paused epochs trained nothing, so the faulted day simply
        // ran fewer epochs -- report it, don't count it against the
        // resilience claim.
        std::printf("%zu epochs paused with no quorum "
                    "(state preserved, resumed on heal)\n",
                    faulted.pausedEpochs);
    }

    // ---- rack power loss + durable restore day (DESIGN.md ch. 13) --
    // Same day, same background faults, plus a whole-rack power loss
    // mid-epoch. With the replicated checkpoint store armed
    // (--ckpt-replicas, default 2 here; --ckpt-interval bounds the
    // RPO) the scheduler restarts the fleet from the nearest
    // surviving replica in the same slot: lost work stays within the
    // checkpoint interval, and the quorum-read manifest picks the
    // last *acked* generation even when the newest write was torn.
    const std::size_t soakReplicas =
        policy.ckptReplicas > 0 ? policy.ckptReplicas : 2;
    const std::size_t soakInterval =
        policy.ckptIntervalEpochs > 0 ? policy.ckptIntervalEpochs : 2;
    std::printf("\n== rack power loss + restore day (k=%zu, "
                "interval %zu epochs) ==\n",
                soakReplicas, soakInterval);
    fault::FaultPlan powerPlan = plan;
    fault::FaultSpec outage;
    outage.kind = fault::FaultKind::RackPowerLoss;
    outage.epoch = 15; // mid-interval, so the RPO is visible
    outage.step = 1;
    outage.phase = fault::FaultPhase::Wave1;
    outage.board = 0;  // rack id; the fail-stop takes the whole fleet
    outage.count = 1;
    powerPlan.add(outage);
    fault::FaultInjector powerInjector(powerPlan);
    const trace::HarvestReport powerDay = runDay(
        tidal, &powerInjector, policy, soakReplicas, soakInterval);

    Table rt("Rack power loss day (replicated checkpoints)");
    rt.setHeader({"", "value"});
    rt.addRow({"epochs trained",
               std::to_string(powerDay.epochsTrained)});
    rt.addRow({"final test acc",
               formatDouble(100.0 * powerDay.finalTestAcc, 1) + "%"});
    rt.addRow({"power losses", std::to_string(powerDay.powerLosses)});
    rt.addRow({"replica copies written",
               std::to_string(powerDay.replicaWrites)});
    rt.addRow({"checkpoints taken",
               std::to_string(powerDay.checkpointsTaken)});
    rt.addRow({"lost work (epochs, RPO)",
               std::to_string(powerDay.lostWorkEpochs)});
    rt.addRow({"restore latency",
               formatDuration(powerDay.restoreSeconds)});
    rt.addRow({"slots down (no restore)",
               std::to_string(powerDay.downSlots)});
    rt.print();
    std::printf("timeline hash (power-loss day): %016llx\n",
                static_cast<unsigned long long>(powerDay.timelineHash));
    if (powerDay.powerLosses == 0)
        warn("soak expected a rack power loss");
    if (powerDay.powerLosses > 0 && powerDay.restoreSeconds <= 0.0)
        warn("soak expected a priced durable restore");
    if (powerDay.downSlots > 0)
        warn("fleet stayed dark after power loss: replicas unreadable");

    // ---- sharded parameter-server soak (DESIGN.md ch. 11) ----
    // Same cluster, PS execution mode: crash a shard host (SoC 5 is
    // the board-1 server under the first-SoC-per-board rule), cut the
    // board hosting another shard, corrupt a push burst, and bring
    // the crashed host back. Every recovery shows in the counters.
    std::printf("\n== sharded-PS soak (%zu shards, staleness %zu) ==\n",
                bench::benchPsShards(), bench::benchStaleness());
    fault::FaultPlan psPlan;
    fault::FaultSpec psCrash;
    psCrash.kind = fault::FaultKind::PsServerCrash;
    psCrash.epoch = 2;
    psCrash.step = 2;
    psCrash.soc = 5;
    psPlan.add(psCrash);
    fault::FaultSpec psCut;
    psCut.kind = fault::FaultKind::BoardPartition;
    psCut.epoch = 3;
    psCut.board = 2;
    psCut.durationEpochs = 2;
    psPlan.add(psCut);
    fault::FaultSpec psCorrupt;
    psCorrupt.kind = fault::FaultKind::GradCorrupt;
    psCorrupt.epoch = 4;
    psCorrupt.step = 1;
    psCorrupt.soc = 7;
    psCorrupt.count = 2;
    psPlan.add(psCorrupt);
    fault::FaultSpec psRejoin;
    psRejoin.kind = fault::FaultKind::SocRejoin;
    psRejoin.epoch = 6;
    psRejoin.soc = 5;
    psPlan.add(psRejoin);

    const PsSoakResult psClean = runPsSoak(nullptr, policy, 8);
    const PsSoakResult psFaulted = runPsSoak(&psPlan, policy, 8);

    Table pt("Sharded-PS soak: clean vs faulted");
    pt.setHeader({"", "clean", "faulted"});
    pt.addRow({"epochs trained", std::to_string(psClean.epochs),
               std::to_string(psFaulted.epochs)});
    pt.addRow({"final test acc",
               formatDouble(100.0 * psClean.testAcc, 1) + "%",
               formatDouble(100.0 * psFaulted.testAcc, 1) + "%"});
    pt.addRow({"pushes acked", std::to_string(psClean.acked),
               std::to_string(psFaulted.acked)});
    pt.addRow({"pushes applied", std::to_string(psClean.applied),
               std::to_string(psFaulted.applied)});
    pt.addRow({"staleness blocks", std::to_string(psClean.blocks),
               std::to_string(psFaulted.blocks)});
    pt.addRow({"max snapshot age", std::to_string(psClean.maxAge),
               std::to_string(psFaulted.maxAge)});
    pt.addRow({"shard failovers", std::to_string(psClean.failovers),
               std::to_string(psFaulted.failovers)});
    pt.addRow({"fenced pushes", std::to_string(psClean.fenced),
               std::to_string(psFaulted.fenced)});
    pt.addRow({"CRC retransmits", std::to_string(psClean.retransmits),
               std::to_string(psFaulted.retransmits)});
    pt.addRow({"typed push drops", std::to_string(psClean.drops),
               std::to_string(psFaulted.drops)});
    pt.addRow({"shard rebalances", std::to_string(psClean.rebalances),
               std::to_string(psFaulted.rebalances)});
    pt.addRow({"epochs paused (no quorum)",
               std::to_string(psClean.pausedEpochs),
               std::to_string(psFaulted.pausedEpochs)});
    pt.print();
    std::printf("timeline hash (faulted PS soak): %016llx\n",
                static_cast<unsigned long long>(
                    psFaulted.timelineHash));
    if (psFaulted.failovers == 0)
        warn("PS soak expected at least one shard failover");
    if (psFaulted.retransmits == 0)
        warn("PS soak expected CRC retransmits");
    if (psFaulted.acked != psFaulted.applied)
        warn("PS soak lost an acked push (acked != applied)");
    if (psFaulted.maxAge > bench::benchStaleness())
        warn("PS soak violated the staleness bound");
    return 0;
}
