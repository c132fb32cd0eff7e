#include "core/socflow_trainer.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "collectives/reduce.hh"
#include "core/checkpoint.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace socflow {
namespace core {

namespace {

sim::ClusterConfig
makeClusterConfig(const SoCFlowConfig &cfg)
{
    sim::ClusterConfig c = cfg.clusterTemplate;
    c.numSocs = cfg.numSocs;
    return c;
}

/**
 * Cached handles into the metrics registry for the trainer hot path
 * (registration takes the registry mutex; these lookups run once).
 */
struct TrainerMetrics {
    obs::Counter &steps;
    obs::Counter &epochs;
    obs::Counter &preemptions;
    obs::Counter &rebuilds;
    obs::Counter &checkpointSaves;
    obs::Counter &checkpointLoads;
    obs::Counter &checkpointErrors;
    obs::Counter &crashes;
    obs::Counter &waveResumes;
    obs::Counter &leaderElections;
    obs::Counter &syncFailures;
    obs::Counter &rejoins;
    obs::Counter &pausedEpochs;
    obs::Gauge &suspicionMax;
    obs::Gauge &alpha;
    obs::Gauge &cpuFraction;
    obs::Gauge &activeGroups;
    obs::Histogram &stepComputeS;
    obs::Histogram &stepSyncS;
    obs::TDigest &recoveryDigest;
    obs::TDigest &rejoinDigest;
    obs::TDigest &clusterDigest;

    TrainerMetrics()
        : steps(obs::metrics().counter("trainer_steps_total")),
          epochs(obs::metrics().counter("trainer_epochs_total")),
          preemptions(
              obs::metrics().counter("trainer_preemptions_total")),
          rebuilds(
              obs::metrics().counter("trainer_topology_rebuilds_total")),
          checkpointSaves(
              obs::metrics().counter("trainer_checkpoint_saves_total")),
          checkpointLoads(
              obs::metrics().counter("trainer_checkpoint_loads_total")),
          checkpointErrors(obs::metrics().counter(
              "trainer_checkpoint_errors_total")),
          crashes(obs::metrics().counter("trainer_crashes_total")),
          waveResumes(obs::metrics().counter("wave_resume_total")),
          leaderElections(
              obs::metrics().counter("leader_elections_total")),
          syncFailures(
              obs::metrics().counter("trainer_sync_failures_total")),
          rejoins(obs::metrics().counter("rejoin_total")),
          pausedEpochs(
              obs::metrics().counter("trainer_paused_epochs_total")),
          suspicionMax(
              obs::metrics().gauge("membership_suspicion_phi_max")),
          alpha(obs::metrics().gauge("trainer_alpha")),
          cpuFraction(obs::metrics().gauge("trainer_cpu_fraction")),
          activeGroups(obs::metrics().gauge("trainer_active_groups")),
          stepComputeS(obs::metrics().histogram(
              "trainer_step_compute_seconds")),
          stepSyncS(
              obs::metrics().histogram("trainer_step_sync_seconds")),
          recoveryDigest(obs::metrics().tdigest(
              "fault_recovery_seconds_digest")),
          rejoinDigest(
              obs::metrics().tdigest("rejoin_seconds_digest")),
          clusterDigest(obs::metrics().tdigest(
              "collective_seconds_digest_cluster"))
    {
    }
};

TrainerMetrics &
trainerMetrics()
{
    static TrainerMetrics m;
    return m;
}

/** Fold a sync query's attribution, scaled by `scale`, into the
 *  epoch's per-resource ledger. */
void
foldUsage(std::vector<sim::ResourceUsage> &ledger,
          const sim::FlowCapture &cap, double scale)
{
    if (ledger.size() < cap.usage.size())
        ledger.resize(cap.usage.size());
    for (std::size_t r = 0; r < cap.usage.size(); ++r) {
        const sim::ResourceUsage &u = cap.usage[r];
        ledger[r].busySeconds += u.busySeconds * scale;
        ledger[r].bytes += u.bytes * scale;
        ledger[r].bindingSeconds += u.bindingSeconds * scale;
    }
}

} // namespace

SoCFlowTrainer::GroupState::GroupState(std::vector<sim::SocId> socs_in,
                                       const nn::Model &proto,
                                       const nn::SgdConfig &scfg,
                                       const quant::QuantConfig &qcfg,
                                       std::uint64_t seed)
    : socs(std::move(socs_in)), fp32(proto), int8(proto)
{
    sgd = std::make_unique<nn::Sgd>(fp32, scfg);
    int8Trainer =
        std::make_unique<quant::Int8Trainer>(int8, scfg, qcfg, seed);
}

void
SoCFlowTrainer::GroupState::restore(const std::vector<float> &w)
{
    fp32.setFlatParams(w);
    int8.setFlatParams(w);
    sgd->resetState();
}

SoCFlowTrainer::SoCFlowTrainer(SoCFlowConfig config,
                               const data::DataBundle &bundle_in,
                               const std::vector<float> *initial)
    : cfg(std::move(config)), bundle(bundle_in),
      profile(sim::modelProfile(cfg.modelFamily)),
      cluster(makeClusterConfig(cfg)), engine(cluster), compute(),
      meter(), dvfs(cfg.numSocs, cfg.dvfs, cfg.seed ^ 0xdf5),
      fullMapping(mapGroups(cfg.numSocs, cluster.config().socsPerBoard,
                            cfg.numGroups, cfg.mapping)),
      mpc(profile.cpuMsPerSample,
          profile.cpuMsPerSample / profile.npuSpeedup),
      rng(cfg.seed)
{
    if (cfg.numGroups == 0 || cfg.numGroups > cfg.numSocs)
        fatal("invalid group count ", cfg.numGroups);
    engine.setSyncPolicy(cfg.sync);
    bootGroups(initial);
}

void
SoCFlowTrainer::bootGroups(const std::vector<float> *initial)
{
    deadSocs.clear();
    isolatedSocs.clear();
    isolatedSinceS.clear();
    pausedGroups.clear();
    quorumLost = false;

    membership::PhiConfig pc;
    pc.threshold = cfg.phiThreshold;
    pc.windowSize = cfg.phiWindow;
    detector = membership::PhiAccrualDetector(pc);

    Rng initRng(cfg.seed ^ 0xbeef);
    nn::Model proto =
        nn::buildModel(cfg.modelFamily, bundle.spec, initRng);
    if (initial)
        proto.setFlatParams(*initial);

    groups.clear();
    groups.reserve(fullMapping.numGroups());
    for (std::size_t g = 0; g < fullMapping.numGroups(); ++g) {
        groups.push_back(std::make_unique<GroupState>(
            fullMapping.members[g], proto, cfg.sgd, cfg.quant,
            cfg.seed + 101 * (g + 1)));
    }
    rebuildTopology();
}

double
SoCFlowTrainer::cpuFraction() const
{
    if (cfg.npuOnly)
        return 0.0;
    if (!cfg.useMixedPrecision)
        return 1.0;
    if (cfg.fixedCpuFraction >= 0.0)
        return cfg.fixedCpuFraction;
    return mpc.cpuFraction();
}

std::size_t
SoCFlowTrainer::mappingConflictC() const
{
    return conflictC(mapping, cluster.config().socsPerBoard,
                     cluster.config().numBoards());
}

double
SoCFlowTrainer::groupComputeSeconds(const GroupState &g,
                                    double cpu_fraction) const
{
    const double batch = static_cast<double>(cfg.groupBatch);
    const double cpuMs = profile.cpuMsPerSample;
    const double npuMs = profile.cpuMsPerSample / profile.npuSpeedup;
    // Per-sample time of one SoC running its CPU and NPU in parallel
    // on its share, given the batch split.
    const double perSampleMs =
        std::max(cpu_fraction * cpuMs, (1.0 - cpu_fraction) * npuMs);

    // Effective per-SoC rate: DVFS clock times any injected
    // straggler slowdown.
    const auto rate = [this](sim::SocId s) {
        double r = dvfs.clockFactor(s);
        if (faults)
            r *= faults->computeFactor(s);
        return r;
    };

    if (cfg.rebalanceUnderclock) {
        // Workload rebalancing: shares proportional to clock factor,
        // so the group finishes together.
        double clockSum = 0.0;
        for (sim::SocId s : g.socs)
            clockSum += rate(s);
        return perSampleMs * batch / (1000.0 * clockSum);
    }
    // Equal shares: the slowest SoC dominates.
    double minClock = 1.0;
    for (sim::SocId s : g.socs)
        minClock = std::min(minClock, rate(s));
    const double perSoc = batch / static_cast<double>(g.socs.size());
    return perSampleMs * perSoc / (1000.0 * minClock);
}

double
SoCFlowTrainer::stepSyncSeconds() const
{
    SyncCosts &c = syncCosts;
    if (c.stepS >= 0.0)
        return c.stepS;
    const double bytes = profile.paramBytes();
    if (cfg.usePlanning) {
        SyncSchedule sched =
            planSyncSchedule(engine, mapping, plan, bytes);
        c.waveS = std::move(sched.waveSeconds);
        c.stepCap = std::move(sched.capture);
        c.stepS = sched.total.seconds;
    } else {
        const sim::FlowNetwork &net = cluster.network();
        net.beginCapture(&c.stepCap);
        c.stepS = unplannedSyncCost(engine, mapping, bytes).seconds;
        net.endCapture();
        c.waveS.assign(1, c.stepS);
    }
    return c.stepS;
}

double
SoCFlowTrainer::epochSyncSeconds() const
{
    SyncCosts &c = syncCosts;
    if (c.epochS >= 0.0)
        return c.epochS;
    double total = 0.0;
    if (groups.size() > 1) {
        const sim::FlowNetwork &net = cluster.network();
        net.beginCapture(&c.epochCap);
        std::vector<sim::SocId> leaders;
        for (const auto &g : groups)
            leaders.push_back(g->socs.front());
        total += leaderAggregateSeconds(std::move(leaders));
        // Leaders broadcast the averaged weights inside their groups
        // (groups run concurrently; charge the slowest).
        double worstBcast = 0.0;
        for (const auto &g : groups) {
            if (g->socs.size() <= 1)
                continue;
            std::vector<sim::SocId> members(g->socs.begin() + 1,
                                            g->socs.end());
            worstBcast = std::max(
                worstBcast,
                engine.broadcast(g->socs.front(), members,
                                 profile.paramBytes())
                    .seconds);
        }
        net.endCapture();
        total += worstBcast;
    }
    // Cross-group data shuffle: each SoC receives a fresh shard from
    // the control plane through the 20 Gbps switch.
    const double shardBytes =
        static_cast<double>(bundle.train.size()) * 4.0 *
        static_cast<double>(bundle.train.sampleNumel()) /
        static_cast<double>(cfg.numSocs);
    total += shardBytes / (cluster.config().socLinkBps / 8.0) +
             cluster.config().messageLatencyS;
    c.epochS = total;
    return total;
}

double
SoCFlowTrainer::leaderAggregateSeconds(
    std::vector<sim::SocId> leaders) const
{
    // Order the ring by SoC id so neighbouring leaders share boards
    // (and racks) where possible -- fewer NIC and uplink crossings.
    std::sort(leaders.begin(), leaders.end());
    if (cluster.numRacks() > 1) {
        // Third aggregation tier (DESIGN.md ch. 10): per-rack leader
        // rings reduce locally, then a cluster ring over one
        // representative per rack crosses the core.
        return engine
            .hierarchicalAllReduce(leaders, profile.paramBytes())
            .seconds;
    }
    return engine.ringAllReduce(leaders, profile.paramBytes()).seconds;
}

void
SoCFlowTrainer::registerProfilerLayers()
{
    if (profLayersRegistered || groups.empty())
        return;
    std::vector<std::pair<std::string, std::size_t>> table;
    for (const nn::Param *p : groups.front()->fp32.params())
        table.emplace_back(p->name, p->value.numel());
    obs::profiler().registerLayers(table);
    profLayersRegistered = true;
}

void
SoCFlowTrainer::profileAlpha()
{
    if (!cfg.useMixedPrecision || cfg.fixedCpuFraction >= 0.0 ||
        cfg.npuOnly)
        return;
    const std::size_t n =
        std::min(cfg.validationSamples, bundle.train.size());
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i)
        idx[i] = rng.uniformInt(bundle.train.size());
    auto [x, y] = bundle.train.batch(idx);
    GroupState &g = *groups.front();

    // Confidence probe. The paper profiles the CPU/NPU error gap on
    // a validation slice (Eq. 4 uses logits). Because our on-chip
    // merge re-synchronizes the replicas every batch, the *logit*
    // cosine saturates near 1; the *gradient* cosine between the
    // FP32 and INT8 paths (UI8's direction-deviation metric, which
    // the paper builds on) reproduces the reported exponential decay
    // of alpha as training converges, so the probe uses gradients.
    g.fp32.zeroGrad();
    g.fp32.trainStep(x, y);
    std::vector<float> gradFp = g.fp32.flatGrads();
    g.fp32.zeroGrad();
    std::vector<float> gradInt = g.int8Trainer->probeGradients(x, y);

    const std::size_t flat = gradFp.size();
    tensor::Tensor tf =
        tensor::Tensor::fromValues({flat}, std::move(gradFp));
    tensor::Tensor ti =
        tensor::Tensor::fromValues({flat}, std::move(gradInt));
    mpc.updateAlpha(tf, ti);
}

EpochRecord
SoCFlowTrainer::runEpoch()
{
    EpochRecord rec;
    meter.reset();

    TrainerMetrics &m = trainerMetrics();
    obs::Tracer &tr = obs::tracer();
    obs::ScopedSpan hostEpoch(tr, "runEpoch", "trainer");
    const bool tracing = tr.enabled();
    if (tracing && !obsTracksNamed) {
        tr.setProcessName(obs::kPidSim, "SoC-Cluster (simulated)");
        tr.setProcessName(obs::kPidHost, "host wall clock");
        tr.setTrackName(obs::kPidSim, obs::kTrackControl, "control");
        tr.setTrackName(obs::kPidSim, obs::kTrackComm, "communication");
        tr.setTrackName(obs::kPidSim, obs::kTrackUpdate,
                        "optimizer update");
        for (std::size_t gi = 0; gi < groups.size(); ++gi) {
            tr.setTrackName(
                obs::kPidSim,
                obs::kTrackGroupBase + static_cast<int>(gi),
                "group " + std::to_string(gi) + " compute");
        }
        obsTracksNamed = true;
    }
    const double epochStartS = simClockS;

    // Fault injection: open the epoch on the step/phase clock. This
    // fires leftovers from earlier epochs plus anything scheduled at
    // {epoch, 0, Compute}, and drops memoized sync costs (degrade
    // windows may have opened or closed since last epoch).
    if (faults) {
        dispatchFired(faults->advanceTo(fault::FaultPoint{
                          epochCounter, 0, fault::FaultPhase::Compute}),
                      0);
        invalidateSyncCosts();
        // Heal sweep: partition windows that expired with the advance
        // above release their boards; paused groups resume and
        // isolated SoCs rejoin before any training work is scheduled.
        // A powered-off fleet has nothing to heal.
        if (!fleetDown)
            healMemberships();
    }

    // A rack power loss has the fleet down: volatile state is gone,
    // so no epoch makes progress until the caller restores from a
    // durable checkpoint (restoreAfterPowerLoss, or a fresh trainer +
    // loadCheckpoint). Distinct from a quorum pause: state was LOST,
    // not preserved.
    if (fleetDown) {
        rec.powerLost = true;
        tr.recordInstant("epoch skipped (fleet down)", "fault",
                         obs::kTrackControl, simClockS);
        return rec;
    }

    // Time-attribution profiler (obs/profiler.hh): a passive span
    // consumer over the same simulated timings the records and traces
    // use. Epoch-relative span clock `profT`; every value it reads is
    // computed by the training path regardless, so enabling it cannot
    // perturb the timeline (asserted in test_parallel_determinism).
    obs::Profiler &prof = obs::profiler();
    const bool profiling = prof.enabled();
    double profT = 0.0;
    // Closing recovery span of an epoch that trained (recovery work
    // happened once at paper scale, after the steps).
    const auto profileRecovery = [&] {
        if (rec.recoverySeconds <= 0.0)
            return;
        prof.addSpan(obs::kAllSlots, obs::Phase::Recovery, profT,
                     profT + rec.recoverySeconds);
        prof.attributeCritical("fault-recovery", rec.recoverySeconds,
                               rec.recoverySeconds);
        profT += rec.recoverySeconds;
    };
    if (profiling) {
        registerProfilerLayers();
        prof.beginEpoch(groups.size());
        profEpochUse.assign(cluster.network().numResources(),
                            sim::ResourceUsage{});
    }

    // Quorum rule: with no partition side holding a majority, the
    // epoch pauses in place -- every group keeps its full state
    // (weights AND momentum), nothing trains, nothing is lost, and
    // training resumes the epoch the cut heals.
    if (quorumLost) {
        rec.paused = true;
        closeTally(rec);
        ++epochCounter;
        timeline.mix(std::uint64_t{0x51}); // 'Q': quorum pause
        timeline.mix(static_cast<std::uint64_t>(epochCounter));
        timeline.mix(gate.current());
        m.pausedEpochs.add(1.0);
        tr.recordInstant("epoch paused (no quorum)", "fault",
                         obs::kTrackControl, simClockS);
        inform("epoch ", epochCounter - 1,
               " paused: no partition side holds quorum; state "
               "preserved, awaiting heal");
        if (profiling) {
            prof.addSpan(obs::kAllSlots, obs::Phase::Paused, 0.0,
                         rec.simSeconds);
            prof.attributeCritical("fault-recovery", rec.simSeconds,
                                   rec.simSeconds);
            prof.noteTimelineHash(timeline.value());
            prof.endEpoch(rec.simSeconds);
        }
        return rec;
    }

    if (cfg.dvfsEnabled)
        dvfs.step();

    // Profile alpha/beta before the epoch (the paper profiles the
    // validation set on CPU/NPU prior to each training epoch).
    profileAlpha();
    const double fCpu = cpuFraction();

    // Cross-group shuffle: fresh IID shards each epoch.
    auto shards =
        data::shardIid(bundle.train.size(), groups.size(), rng);

    std::size_t steps = 0;
    for (const auto &shard : shards)
        steps = std::max<std::size_t>(
            steps, shard.size() / cfg.groupBatch);
    steps = std::max<std::size_t>(steps, 1);

    const double updateS = compute.updateSeconds(profile);

    // Overlap needs the CG plan: without wave sequencing every ring
    // contends at once and there is no schedule to hide behind
    // compute, so the ablation's planning toggle also governs it.
    const bool overlap = cfg.overlapCommCompute && cfg.usePlanning;
    // Trace timestamps are laid out at paper scale directly, so the
    // dataset scale factor applies per span rather than at epoch end.
    const double f = bundle.timeScale();

    double lossSum = 0.0, accSum = 0.0;
    std::size_t sampleSum = 0;
    double cpuSocSecondsSum = 0.0;
    double npuSocSecondsSum = 0.0;
    double commSocSecondsSum = 0.0;

    std::vector<std::size_t> cursor(groups.size(), 0);
    // A fault may have changed the group set; re-shard when it did
    // (the lost group's data redistributes over the survivors).
    const auto reshardOnResize = [&] {
        if (groups.size() != shards.size()) {
            shards =
                data::shardIid(bundle.train.size(), groups.size(), rng);
            cursor.assign(groups.size(), 0);
        }
    };
    for (std::size_t step = 0; step < steps; ++step) {
        // Step-granular faults land before this step's compute.
        if (faults) {
            dispatchFired(
                faults->advanceTo(fault::FaultPoint{
                    epochCounter, step, fault::FaultPhase::Compute}),
                step);
            reshardOnResize();
        }
        if (fleetDown)
            break; // power lost before this step's compute
        const double stepSync = stepSyncSeconds();
        const double t0 = simClockS;
        double stepComputeS = 0.0;

        // Profiler: snapshot the wave layout and per-resource
        // attribution matching the stepSync just read -- a wave-phase
        // fault below may rebuild the topology and drop both caches
        // before the spans are laid out.
        std::vector<double> profWaves;
        if (profiling) {
            profWaves = syncCosts.waveS;
            foldUsage(profEpochUse, syncCosts.stepCap, f);
        }

        // Per-group training steps are independent until the wave
        // sync: each worker touches only its own GroupState, its own
        // cursor slot, and its own result slot. All cross-group
        // accumulation (loss/acc/samples, the compute-time max, trace
        // spans) happens in the serial fold below, in ascending group
        // order -- the exact accumulation order of the old serial
        // loop, so the timeline stays bit-exact at any thread count
        // (DESIGN.md ch. 9).
        struct GroupStepOut {
            nn::StepResult rCpu{}, rNpu{};
            double gSec = 0.0;
            bool ran = false;
        };
        std::vector<GroupStepOut> outs(groups.size());
        globalThreadPool().parallelFor(
            groups.size(), [&](std::size_t gi) {
                GroupState &g = *groups[gi];
                const auto &shard = shards[gi];
                if (shard.empty())
                    return;

                // Assemble this group's batch from its shard.
                std::vector<std::size_t> batchIdx;
                batchIdx.reserve(cfg.groupBatch);
                for (std::size_t i = 0;
                     i < cfg.groupBatch && cursor[gi] < shard.size();
                     ++i, ++cursor[gi]) {
                    batchIdx.push_back(shard[cursor[gi]]);
                }
                if (batchIdx.empty())
                    return;

                // Split CPU/NPU portions of the batch.
                std::size_t nCpu = static_cast<std::size_t>(
                    std::lround(fCpu *
                                static_cast<double>(batchIdx.size())));
                if (cfg.npuOnly)
                    nCpu = 0;
                else if (!cfg.useMixedPrecision)
                    nCpu = batchIdx.size();
                else
                    nCpu = std::clamp<std::size_t>(
                        nCpu, 1, batchIdx.size() - 1);

                nn::StepResult rCpu{}, rNpu{};
                if (nCpu > 0) {
                    std::vector<std::size_t> front(
                        batchIdx.begin(), batchIdx.begin() + nCpu);
                    auto [xc, yc] = bundle.train.batch(front);
                    g.fp32.zeroGrad();
                    rCpu = g.fp32.trainStep(xc, yc);
                    g.sgd->step();
                }
                if (nCpu < batchIdx.size()) {
                    std::vector<std::size_t> back(
                        batchIdx.begin() + nCpu, batchIdx.end());
                    auto [xn, yn] = bundle.train.batch(back);
                    rNpu = g.int8Trainer->trainStep(xn, yn);
                }

                // On-chip aggregation (Eq. 5), then intra-group sync
                // (implicit: the group replica is the synced state).
                if (nCpu > 0 && nCpu < batchIdx.size()) {
                    std::vector<float> merged;
                    mpc.mergeWeights(g.fp32.flatParams(),
                                     g.int8.flatParams(), merged);
                    g.fp32.setFlatParams(merged);
                    g.int8.setFlatParams(merged);
                } else if (nCpu == 0) {
                    g.fp32.setFlatParams(g.int8.flatParams());
                } else {
                    g.int8.setFlatParams(g.fp32.flatParams());
                }

                GroupStepOut &o = outs[gi];
                o.rCpu = rCpu;
                o.rNpu = rNpu;
                o.gSec = groupComputeSeconds(g, fCpu);
                o.ran = true;
            });

        // Serial fold, ascending group order (bit-exact vs serial).
        for (std::size_t gi = 0; gi < groups.size(); ++gi) {
            const GroupStepOut &o = outs[gi];
            if (!o.ran)
                continue;
            lossSum +=
                o.rCpu.loss * static_cast<double>(o.rCpu.samples) +
                o.rNpu.loss * static_cast<double>(o.rNpu.samples);
            accSum +=
                o.rCpu.accuracy * static_cast<double>(o.rCpu.samples) +
                o.rNpu.accuracy * static_cast<double>(o.rNpu.samples);
            sampleSum += o.rCpu.samples + o.rNpu.samples;
            if (tracing) {
                tr.recordSpan(
                    "compute", "compute",
                    obs::kTrackGroupBase + static_cast<int>(gi), t0,
                    o.gSec * f,
                    {{"group", static_cast<double>(gi)},
                     {"cpu_fraction", fCpu}});
            }
            stepComputeS = std::max(stepComputeS, o.gSec);
        }

        // This step's communication waves: mid-wave crashes and
        // corrupted chunks fire here. The wave itself is charged at
        // the healthy cost below; each recovery path accounts its own
        // extra seconds (timeout + backoff + resumed tail) in tally.
        if (faults) {
            dispatchFired(
                faults->advanceTo(fault::FaultPoint{
                    epochCounter, step, fault::FaultPhase::Wave1}),
                step);
            dispatchFired(
                faults->advanceTo(fault::FaultPoint{
                    epochCounter, step, fault::FaultPhase::Wave2}),
                step);
            reshardOnResize();
        }
        if (fleetDown)
            break; // power lost mid-wave: the step never commits

        // Timing: groups compute concurrently; syncs follow the CG
        // plan and overlap with the next step's compute when enabled.
        rec.computeSeconds += stepComputeS;
        rec.syncSeconds += stepSync;
        rec.updateSeconds += updateS;
        double stepWallS;
        if (overlap) {
            stepWallS = std::max(stepComputeS, stepSync) + updateS;
        } else {
            stepWallS = stepComputeS + stepSync + updateS;
        }
        rec.simSeconds += stepWallS;

        if (profiling) {
            // Span layout mirrors the trace block below, at paper
            // scale on the epoch-relative clock. Per group: forward
            // is the first third of its compute, the gap to the
            // slowest group is straggler stall. Waves are shared
            // (kAllSlots) and tile the step's sync window exactly
            // (conservation); the residual guard absorbs per-wave fp
            // rounding and a mid-step cache drop.
            const double base = profT;
            const double cMaxS = stepComputeS * f;
            const double syncS = stepSync * f;
            for (std::size_t gi = 0; gi < outs.size(); ++gi) {
                const double cg =
                    outs[gi].ran ? outs[gi].gSec * f : 0.0;
                if (cg > 0.0) {
                    prof.addSpan(gi, obs::Phase::Forward, base,
                                 base + cg / 3.0);
                    prof.addSpan(gi, obs::Phase::Backward,
                                 base + cg / 3.0, base + cg);
                }
                if (cg < cMaxS)
                    prof.addSpan(gi, obs::Phase::Stall, base + cg,
                                 base + cMaxS);
            }
            const double waveStart = overlap ? base : base + cMaxS;
            double waveT = waveStart;
            for (std::size_t w = 0; w < profWaves.size(); ++w) {
                prof.addSpan(obs::kAllSlots,
                             w == 0 ? obs::Phase::Wave1Sync
                                    : obs::Phase::Wave2Sync,
                             waveT, waveT + profWaves[w] * f);
                waveT += profWaves[w] * f;
            }
            if (waveT < waveStart + syncS)
                prof.addSpan(obs::kAllSlots, obs::Phase::Wave1Sync,
                             waveT, waveStart + syncS);
            prof.addSpan(obs::kAllSlots, obs::Phase::Update,
                         base + (stepWallS - updateS) * f,
                         base + stepWallS * f);
            prof.noteStepWindows(cMaxS, syncS, overlap);
            // Critical path of the step: under overlap the longer of
            // compute/comm binds and relieving it saves the excess;
            // without overlap both windows are fully critical. Comm
            // shares resolve against the flow capture at epoch close.
            if (overlap) {
                if (cMaxS >= syncS)
                    prof.attributeCritical("compute", cMaxS,
                                           cMaxS - syncS);
                else
                    prof.attributeCommCritical(syncS, syncS - cMaxS);
            } else {
                prof.attributeCritical("compute", cMaxS, cMaxS);
                prof.attributeCommCritical(syncS, syncS);
            }
            prof.attributeCritical("optimizer", updateS * f,
                                   updateS * f);
            prof.noteSlotCount(groups.size());
            profT += stepWallS * f;
        }

        if (tracing) {
            // Sync waves: concurrent with compute under the CG plan,
            // strictly after it otherwise; waves run in sequence.
            double waveT = overlap ? t0 : t0 + stepComputeS * f;
            for (std::size_t w = 0; w < syncCosts.waveS.size(); ++w) {
                tr.recordSpan("sync wave", "comm", obs::kTrackComm,
                              waveT, syncCosts.waveS[w] * f,
                              {{"wave", static_cast<double>(w)}});
                waveT += syncCosts.waveS[w] * f;
            }
            tr.recordSpan("update", "update", obs::kTrackUpdate,
                          t0 + (stepWallS - updateS) * f, updateS * f);
            tr.recordSpan("step", "control", obs::kTrackControl, t0,
                          stepWallS * f,
                          {{"step", static_cast<double>(step)}});
        }
        // Heartbeats: each live member's arrival lands at its own
        // compute-rate-scaled offset into the step, so a straggler's
        // cadence stretches (and the phi window adapts) instead of
        // tripping a binary timeout. Peak phi is sampled just before
        // each arrival -- the most suspicious instant of the gap.
        heartbeatSweep(t0, stepComputeS * f);
        simClockS += stepWallS * f;
        m.steps.add(1.0);
        m.stepComputeS.observe(stepComputeS);
        m.stepSyncS.observe(stepSync);

        // Per-group collective-latency sketches (the per-epoch leader
        // fan-in merges these into the *_cluster series below).
        if (groupDigests.size() != groups.size()) {
            groupDigests.clear();
            for (std::size_t gi = 0; gi < groups.size(); ++gi) {
                groupDigests.push_back(&obs::metrics().tdigest(
                    "collective_seconds_digest",
                    {{"group", std::to_string(gi)}}));
            }
        }
        for (std::size_t gi = 0; gi < groups.size(); ++gi) {
            const std::size_t wave =
                gi < plan.commGroup.size() ? plan.commGroup[gi] : 0;
            groupDigests[gi]->observe(
                wave < syncCosts.waveS.size() ? syncCosts.waveS[wave]
                                              : stepSync);
        }

        // Energy: CPU/NPU busy shares plus comm power.
        const double batch = static_cast<double>(cfg.groupBatch) *
                             static_cast<double>(groups.size());
        cpuSocSecondsSum +=
            fCpu * batch * profile.cpuMsPerSample / 1000.0;
        npuSocSecondsSum += (1.0 - fCpu) * batch *
                            profile.cpuMsPerSample /
                            (profile.npuSpeedup * 1000.0);
        commSocSecondsSum +=
            stepSync * static_cast<double>(cfg.numSocs);
    }

    // Replicate per-step timing/energy to the paper-scale dataset
    // (the math ran on the small synthetic stand-in).
    rec.computeSeconds *= f;
    rec.syncSeconds *= f;
    rec.updateSeconds *= f;
    rec.simSeconds *= f;
    cpuSocSecondsSum *= f;
    npuSocSecondsSum *= f;
    commSocSecondsSum *= f;

    // The cross-group delayed aggregation phase: leader crashes fire
    // here, before the leader ring runs, so a re-elected leader (or a
    // shrunken group set) carries the aggregation.
    const std::size_t lastStep = steps - 1;
    if (faults && !fleetDown) {
        dispatchFired(
            faults->advanceTo(fault::FaultPoint{
                epochCounter, lastStep, fault::FaultPhase::LeaderRing}),
            lastStep);
    }

    // A RackPowerLoss fired inside the epoch: abort without closing.
    // No leader ring, no aggregation, no epoch-counter advance and no
    // epoch-close hash mix -- the epoch died with the fleet, and the
    // resumed run (restored from a durable checkpoint) re-trains it
    // from the checkpoint's state. Recovery accounting up to the
    // outage folds into the aborted record.
    if (fleetDown) {
        rec.powerLost = true;
        closeTally(rec);
        rec.syncSeconds += rec.recoverySeconds;
        rec.energyJoules = meter.totalJoules();
        rec.trainLoss = sampleSum ? lossSum / sampleSum : 0.0;
        rec.trainAcc = sampleSum ? accSum / sampleSum : 0.0;
        if (profiling) {
            profileRecovery();
            prof.noteTimelineHash(timeline.value());
            prof.endEpoch(rec.simSeconds);
        }
        return rec;
    }

    // Delayed cross-group aggregation (leaders' ring + broadcast).
    // Chunks travel CRC32-tagged; pending GradCorrupt events from the
    // injector hit arriving chunks and force retransmissions. A burst
    // outlasting the retry budget drops the whole aggregation for
    // this epoch (groups keep their local weights -- a deferred
    // consensus, never a silently corrupt one).
    if (groups.size() > 1) {
        // Every leader-ring contribution is stamped with the group's
        // generation; stale stamps are fenced out before the average
        // forms (split-brain guard, membership/membership.hh). In
        // steady state every active group is current -- the fence
        // only fires on traffic replayed across a membership change.
        std::vector<std::vector<float>> weights;
        weights.reserve(groups.size());
        for (auto &g : groups) {
            if (gate.admit(g->generation))
                weights.push_back(g->fp32.flatParams());
            else
                ++fencedTotal;
        }
        std::vector<std::vector<float> *> ptrs;
        for (auto &w : weights)
            ptrs.push_back(&w);
        std::function<bool()> corrupt;
        if (faults)
            corrupt = [this] { return faults->corruptNextChunk(); };
        const std::size_t chunkElems = std::max<std::size_t>(
            1, groups.front()->fp32.flatParams().size() /
                   groups.size());
        const collectives::VerifiedReduceOutcome vr =
            collectives::verifiedAllReduceAverage(
                ptrs, chunkElems, corrupt,
                engine.syncPolicy().maxRetries);
        tally.gradCorruptDetected += vr.corruptDetected;
        tally.chunksRetransmitted += vr.retransmitted;
        tally.recoverySeconds += static_cast<double>(vr.retransmitted) *
                                 engine.syncPolicy().backoffBaseS;
        if (vr.applied && !weights.empty()) {
            // Fenced groups could not contribute, but they still
            // receive the consensus and are re-stamped current.
            for (auto &g : groups) {
                g->fp32.setFlatParams(weights.front());
                g->int8.setFlatParams(weights.front());
                g->generation = gate.current();
            }
        } else {
            ++tally.syncFailures;
            m.syncFailures.add(1.0);
            warn("epoch ", epochCounter,
                 " cross-group aggregation dropped after ",
                 vr.corruptDetected, " corrupt chunks: ",
                 collectives::syncErrorName(
                     collectives::SyncError::CorruptRetryExhausted));
            tr.recordInstant("aggregation dropped", "fault",
                             obs::kTrackControl, simClockS);
            obs::flightRecorder().dumpPostMortem(
                "corrupt-retry-exhausted", timeline.value());
        }
        timeline.mix(static_cast<std::uint64_t>(vr.corruptDetected));
        timeline.mix(static_cast<std::uint64_t>(vr.retransmitted));
        timeline.mix(std::uint64_t{vr.applied ? 1u : 0u});
    }
    // Delayed aggregation happens once per epoch and is not scaled.
    const double epochSync = epochSyncSeconds();
    rec.syncSeconds += epochSync;
    rec.simSeconds += epochSync;
    commSocSecondsSum += epochSync * static_cast<double>(cfg.numSocs);
    if (tracing) {
        tr.recordSpan("epoch sync", "comm", obs::kTrackComm, simClockS,
                      epochSync,
                      {{"groups", static_cast<double>(groups.size())}});
    }
    simClockS += epochSync;

    if (profiling) {
        prof.addSpan(obs::kAllSlots, obs::Phase::HierarchicalSync,
                     profT, profT + epochSync);
        prof.noteEpochComm(epochSync);
        prof.attributeCommCritical(epochSync, epochSync);
        // The epoch aggregation runs once at paper scale (unscaled).
        foldUsage(profEpochUse, syncCosts.epochCap, 1.0);
        profT += epochSync;
    }

    // Per-group digest fan-in: each leader ships its group's
    // collective-latency sketch with the epoch aggregation (t-digests
    // merge losslessly), and the merged cluster-wide view exports as
    // collective_seconds_digest_cluster. reset() first -- merge is
    // additive and the per-group sketches are cumulative.
    if (!groupDigests.empty()) {
        m.clusterDigest.reset();
        for (obs::TDigest *d : groupDigests)
            m.clusterDigest.merge(*d);
    }

    meter.accumulate(sim::PowerState::CpuTrain, cpuSocSecondsSum);
    meter.accumulate(sim::PowerState::NpuTrain, npuSocSecondsSum);
    meter.accumulate(sim::PowerState::Comm, commSocSecondsSum);

    // Idle energy for the remaining SoC-seconds of the epoch.
    const double totalSocSeconds =
        rec.simSeconds * static_cast<double>(cfg.numSocs);
    const double busySocSeconds =
        cpuSocSecondsSum + npuSocSecondsSum + commSocSecondsSum;
    if (totalSocSeconds > busySocSeconds) {
        meter.accumulate(sim::PowerState::Idle,
                         totalSocSeconds - busySocSeconds);
    }

    // Close the epoch on the fault clock: the checkpoint phase plus
    // any stragglers scheduled past the actual step count (an epoch
    // never leaks its faults into the next one).
    if (faults) {
        dispatchFired(
            faults->advanceTo(fault::FaultPoint::epochEnd(epochCounter)),
            lastStep);
    }

    // Recovery work (timeouts + backoff + resumed/degraded re-syncs)
    // happened once at paper scale, like the epoch aggregation.
    closeTally(rec);
    rec.syncSeconds += rec.recoverySeconds;
    if (profiling)
        profileRecovery();

    rec.energyJoules = meter.totalJoules();
    rec.trainLoss = sampleSum ? lossSum / sampleSum : 0.0;
    rec.trainAcc = sampleSum ? accSum / sampleSum : 0.0;
    for (auto &g : groups) {
        g->sgd->decayLearningRate();
        g->int8Trainer->optimizer().decayLearningRate();
    }
    ++epochCounter;
    timeline.mix(static_cast<std::uint64_t>(epochCounter));
    timeline.mix(rec.simSeconds);
    timeline.mix(gate.current());
    if (tracing) {
        tr.recordSpan("epoch", "control", obs::kTrackControl,
                      epochStartS, simClockS - epochStartS,
                      {{"epoch", static_cast<double>(epochCounter)},
                       {"sim_seconds", rec.simSeconds}});
    }
    m.epochs.add(1.0);
    m.alpha.set(mpc.alpha());
    m.cpuFraction.set(fCpu);
    m.activeGroups.set(static_cast<double>(groups.size()));
    if (profiling) {
        const sim::FlowNetwork &net = cluster.network();
        for (sim::ResourceId r = 0; r < profEpochUse.size(); ++r) {
            const sim::ResourceUsage &u = profEpochUse[r];
            if (u.busySeconds <= 0.0)
                continue;
            prof.noteResourceUsage(net.name(r), net.capacity(r),
                                   u.busySeconds, u.bytes,
                                   u.bindingSeconds);
        }
        prof.noteTimelineHash(timeline.value());
        prof.endEpoch(rec.simSeconds);
    }
    return rec;
}

void
SoCFlowTrainer::closeTally(EpochRecord &rec)
{
    rec.crashes = tally.crashes;
    rec.recoverySeconds = tally.recoverySeconds;
    rec.waveResumes = tally.waveResumes;
    rec.leaderElections = tally.leaderElections;
    rec.gradCorruptDetected = tally.gradCorruptDetected;
    rec.chunksRetransmitted = tally.chunksRetransmitted;
    rec.syncFailures = tally.syncFailures;
    rec.partitions = tally.partitions;
    rec.rejoins = tally.rejoins;
    rec.fencedStaleMsgs = fencedTotal - fencedReported;
    fencedReported = fencedTotal;
    rec.simSeconds += tally.recoverySeconds;
    tally = RecoveryTally{};
}

double
SoCFlowTrainer::testAccuracy()
{
    GroupState &g = *groups.front();
    const auto &test = bundle.test;
    const std::size_t chunk = 256;
    std::size_t correct = 0;
    for (std::size_t start = 0; start < test.size(); start += chunk) {
        std::vector<std::size_t> idx;
        for (std::size_t i = start;
             i < std::min(test.size(), start + chunk); ++i)
            idx.push_back(i);
        auto [x, y] = test.batch(idx);
        nn::StepResult r = g.fp32.evaluate(x, y);
        correct += static_cast<std::size_t>(
            std::lround(r.accuracy * static_cast<double>(r.samples)));
    }
    return static_cast<double>(correct) /
           static_cast<double>(test.size());
}

void
SoCFlowTrainer::preemptGroup(std::size_t group_index)
{
    if (groups.size() <= 1)
        fatal("cannot preempt the last remaining logical group");
    SOCFLOW_ASSERT(group_index < groups.size(), "group out of range");
    groups.erase(groups.begin() +
                 static_cast<std::ptrdiff_t>(group_index));
    rebuildTopology();
    trainerMetrics().preemptions.add(1.0);
    obs::tracer().recordInstant("preempt group", "control",
                                obs::kTrackControl, simClockS);
    inform("preempted logical group ", group_index, "; ",
           groups.size(), " groups remain");
}

void
SoCFlowTrainer::setActiveGroups(std::size_t n)
{
    if (n == 0 || n > fullMapping.numGroups()) {
        fatal("active group count must be in [1, ",
              fullMapping.numGroups(), "], got ", n);
    }
    if (n == groups.size())
        return;
    if (n < groups.size()) {
        trainerMetrics().preemptions.add(
            static_cast<double>(groups.size() - n));
        groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(n),
                     groups.end());
    } else {
        // Re-admit groups seeded from the consensus checkpoint.
        // Candidates must pass the eligibility rule (no crashed, cut
        // off or parked SoC), and SoCs a crash-recovery remap moved
        // into another active group must not be claimed twice.
        const std::vector<float> w = globalWeights();
        nn::Model proto = groups.front()->fp32;
        proto.setFlatParams(w);
        std::set<sim::SocId> inUse;
        for (const auto &g : groups)
            inUse.insert(g->socs.begin(), g->socs.end());
        while (groups.size() < n) {
            const std::size_t g = groups.size();
            std::vector<sim::SocId> members;
            for (sim::SocId s : fullMapping.members[g]) {
                if (!inUse.count(s) && eligible(s))
                    members.push_back(s);
            }
            if (members.empty()) {
                warn("cannot re-admit logical group ", g,
                     ": no usable SoC left");
                break;
            }
            inUse.insert(members.begin(), members.end());
            groups.push_back(std::make_unique<GroupState>(
                std::move(members), proto, cfg.sgd, cfg.quant,
                cfg.seed + 997 * (g + 1) + epochCounter));
        }
    }
    rebuildTopology();
    // Bump the generation so anything a preempted group left in
    // flight is fenced, never folded into a later aggregate.
    bumpGeneration();
    obs::tracer().recordInstant("resize active groups", "control",
                                obs::kTrackControl, simClockS);
}

void
SoCFlowTrainer::attachFaultInjector(fault::FaultInjector *injector)
{
    faults = injector;
    engine.setFaultModel(injector);
    invalidateSyncCosts();
}

double
SoCFlowTrainer::injectCrash(sim::SocId soc)
{
    // A crash on an idle SoC only blocks its future re-admission.
    const std::size_t gi = markCrashed(soc, "soc crash");
    if (gi == groups.size())
        return 0.0;

    // The in-flight sync: each attempt stalls for the timeout and
    // backs off exponentially, then the ring degrades to the group's
    // survivors (collectives::SyncPolicy envelope).
    const std::vector<sim::SocId> deadList(deadSocs.begin(),
                                           deadSocs.end());
    const collectives::SyncOutcome sync =
        engine.ringAllReduceResilient(groups[gi]->socs,
                                      profile.paramBytes(), &deadList);
    const double recoveryS = sync.stats.seconds;

    // Consensus weights survive on the other groups' leaders; the
    // crashed group's own replica state (momentum included) is lost.
    const std::size_t donor =
        (gi == 0 && groups.size() > 1) ? 1 : 0;
    const std::vector<float> consensus =
        groups[donor]->fp32.flatParams();

    // Survivor set across all active groups.
    const std::vector<sim::SocId> live = liveMembers();
    if (live.empty()) {
        obs::flightRecorder().dumpPostMortem("unsurvivable-crash",
                                             timeline.value());
        fatal("SoC ", soc, " crashed and no live SoC remains");
    }

    // Shrink the group set when the survivors cannot populate it,
    // dropping the crashed group first.
    const std::size_t k = std::min(groups.size(), live.size());
    bool crashedGroupSurvives = true;
    if (groups.size() > k) {
        groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(gi));
        crashedGroupSurvives = false;
        while (groups.size() > k)
            groups.pop_back();
    }

    // Re-run integrity-greedy mapping on the survivor set.
    remapOnto(live);
    if (crashedGroupSurvives)
        groups[gi]->restore(consensus);
    rebuildTopology();

    timeline.mix(std::uint64_t{0x58}); // 'X': full crash recovery
    timeline.mix(static_cast<std::uint64_t>(soc));
    timeline.mix(static_cast<std::uint64_t>(live.size()));
    timeline.mix(recoveryS);
    chargeRecovery("crash recovery", recoveryS,
                   {{"soc", static_cast<double>(soc)},
                    {"retries", static_cast<double>(sync.retries)}});
    inform("SoC ", soc, " crashed; recovered onto ", live.size(),
           " survivors in ", groups.size(), " groups");
    return recoveryS;
}

std::size_t
SoCFlowTrainer::owningGroup(sim::SocId soc) const
{
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const auto &socs = groups[g]->socs;
        if (std::find(socs.begin(), socs.end(), soc) != socs.end())
            return g;
    }
    return groups.size();
}

std::size_t
SoCFlowTrainer::markCrashed(sim::SocId soc, const char *event)
{
    deadSocs.insert(soc);
    isolatedSinceS[soc] = simClockS;
    detector.forget(soc);
    const std::size_t gi = owningGroup(soc);
    if (gi != groups.size()) {
        trainerMetrics().crashes.add(1.0);
        ++tally.crashes;
        obs::tracer().recordInstant(event, "fault", obs::kTrackControl,
                                    simClockS);
    }
    return gi;
}

void
SoCFlowTrainer::chargeRecovery(const char *span, double seconds,
                               std::initializer_list<obs::SpanArg> args)
{
    tally.recoverySeconds += seconds;
    trainerMetrics().recoveryDigest.observe(seconds);
    obs::tracer().recordSpan(span, "fault", obs::kTrackControl,
                             simClockS, seconds, args);
    simClockS += seconds;
}

void
SoCFlowTrainer::dispatchFired(
    const std::vector<fault::FaultSpec> &fired, std::size_t step)
{
    for (const fault::FaultSpec &spec : fired) {
        timeline.mix(static_cast<std::uint64_t>(spec.kind));
        timeline.mix(static_cast<std::uint64_t>(spec.epoch));
        timeline.mix(static_cast<std::uint64_t>(spec.step));
        timeline.mix(static_cast<std::uint64_t>(spec.phase));
        timeline.mix(static_cast<std::uint64_t>(spec.soc));
        switch (spec.kind) {
        case fault::FaultKind::SocCrash:
            injectCrash(spec.soc);
            break;
        case fault::FaultKind::PsServerCrash:
            // Group-wise training has no parameter-server tier; the
            // shard host is just another member dying, but it must
            // run the same recovery path (not fall through to the
            // rate-window default) so PS/group-wise head-to-heads see
            // identical seeded fault mixes.
            injectCrash(spec.soc);
            break;
        case fault::FaultKind::SocCrashMidWave:
            injectMidWaveCrash(
                spec.soc, spec.progress, step,
                spec.phase == fault::FaultPhase::Wave2 ? 1 : 0);
            break;
        case fault::FaultKind::LeaderCrash:
            injectLeaderCrash(spec.soc);
            break;
        case fault::FaultKind::GradCorrupt:
            // Wave-phase corruption hits an intra-group ring now;
            // LeaderRing-phase corruption stays in the injector's
            // budget for the verified epoch aggregation to consume.
            if (spec.phase == fault::FaultPhase::Wave1 ||
                spec.phase == fault::FaultPhase::Wave2)
                chargeCorruptedWave(spec, step);
            break;
        case fault::FaultKind::BoardPartition:
        case fault::FaultKind::SwitchPartition:
            handlePartition(spec);
            break;
        case fault::FaultKind::SocRejoin:
            rejoinSoc(spec.soc);
            break;
        case fault::FaultKind::RackPowerLoss:
            handleRackPowerLoss(spec);
            break;
        case fault::FaultKind::CkptReplicaLoss:
            // Durable-storage loss is invisible to the trainer; the
            // replicated checkpoint store drains the injector's
            // replica-loss budget at its next read/write boundary.
            break;
        default:
            break; // rate windows are state, not events
        }
    }
}

void
SoCFlowTrainer::chargeCorruptedWave(const fault::FaultSpec &spec,
                                    std::size_t step)
{
    const std::size_t burst = faults->drainGradCorrupt();
    if (burst == 0 || groups.empty())
        return;
    std::size_t gi = owningGroup(spec.soc);
    if (gi == groups.size())
        gi = 0; // afflicted SoC already gone: charge the first ring
    if (groups[gi]->socs.size() < 2)
        return; // single-member group: no wire to corrupt

    // The CRC-checked wave detects each corrupt chunk at the receiver
    // and re-requests it; only the cost *beyond* the healthy wave
    // (already charged by the step) is recovery time.
    const std::vector<sim::SocId> &ring = groups[gi]->socs;
    const collectives::SyncOutcome sync =
        engine.ringAllReduceChecked(ring, profile.paramBytes(), burst);
    const double baseS =
        engine.ringAllReduce(ring, profile.paramBytes()).seconds;
    const double extraS = std::max(0.0, sync.stats.seconds - baseS);

    tally.gradCorruptDetected += sync.corruptDetected;
    tally.chunksRetransmitted += sync.chunksRetransmitted;
    timeline.mix(std::uint64_t{0x43}); // 'C': corrupt-chunk recovery
    timeline.mix(static_cast<std::uint64_t>(burst));
    timeline.mix(static_cast<std::uint64_t>(sync.chunksRetransmitted));
    timeline.mix(extraS);
    chargeRecovery("chunk retransmit", extraS,
                   {{"step", static_cast<double>(step)},
                    {"burst", static_cast<double>(burst)},
                    {"retransmitted",
                     static_cast<double>(sync.chunksRetransmitted)}});

    if (!sync.ok()) {
        // Retry budget exhausted: the wave's partial sum is poisoned.
        // Drop it -- restore the afflicted group from a healthy donor
        // rather than fold a corrupt chunk into its weights.
        ++tally.syncFailures;
        trainerMetrics().syncFailures.add(1.0);
        warn("corruption burst of ", burst, " exhausted the ",
             engine.syncPolicy().maxRetries, "-retry budget (",
             collectives::syncErrorName(sync.error),
             "); dropping group ", gi, "'s update");
        const std::size_t donor = (gi == 0 && groups.size() > 1) ? 1 : 0;
        if (donor != gi)
            groups[gi]->restore(groups[donor]->fp32.flatParams());
        obs::tracer().recordInstant("sync failure", "fault",
                                    obs::kTrackControl, simClockS);
        obs::flightRecorder().dumpPostMortem("corrupt-retry-exhausted",
                                             timeline.value());
    }
}

double
SoCFlowTrainer::injectMidWaveCrash(sim::SocId soc, double progress,
                                   std::size_t step, std::size_t wave)
{
    const std::size_t gi = markCrashed(soc, "soc crash mid-wave");
    if (gi == groups.size())
        return 0.0;

    // The acked share of the in-flight AllReduce survives (its chunk
    // CRC tags verified on arrival), so only the tail rounds re-run
    // on the survivor ring.
    const std::vector<sim::SocId> ring = groups[gi]->socs;
    const std::size_t totalRounds =
        ring.size() >= 2 ? 2 * (ring.size() - 1) : 0;
    progress = std::clamp(progress, 0.0, 1.0);
    const std::size_t acked = static_cast<std::size_t>(
        progress * static_cast<double>(totalRounds));
    const std::vector<sim::SocId> deadList(deadSocs.begin(),
                                           deadSocs.end());
    const collectives::SyncOutcome sync = engine.resumeFromChunk(
        ring, profile.paramBytes(), acked, &deadList);
    const double recoveryS = sync.stats.seconds;

    // Unlike a full crash, the group replica -- weights AND momentum
    // -- is preserved: the member list just shrinks.
    auto &socs = groups[gi]->socs;
    socs.erase(std::remove(socs.begin(), socs.end(), soc), socs.end());
    if (socs.empty()) {
        if (groups.size() == 1)
            fatal("SoC ", soc,
                  " crashed mid-wave and no live SoC remains");
        groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(gi));
    }
    rebuildTopology();

    ++tally.waveResumes;
    trainerMetrics().waveResumes.add(1.0);
    timeline.mix(std::uint64_t{0x57}); // 'W': wave resume
    timeline.mix(static_cast<std::uint64_t>(soc));
    timeline.mix(static_cast<std::uint64_t>(acked));
    timeline.mix(static_cast<std::uint64_t>(sync.chunksResumed));
    timeline.mix(recoveryS);
    chargeRecovery(
        "wave resume", recoveryS,
        {{"soc", static_cast<double>(soc)},
         {"step", static_cast<double>(step)},
         {"wave", static_cast<double>(wave)},
         {"acked_rounds", static_cast<double>(acked)},
         {"chunks_resumed", static_cast<double>(sync.chunksResumed)}});
    inform("SoC ", soc, " crashed mid-wave (", acked, "/", totalRounds,
           " rounds acked); resumed on the survivor ring, group state "
           "preserved");
    return recoveryS;
}

double
SoCFlowTrainer::injectLeaderCrash(sim::SocId soc)
{
    const std::size_t gi = markCrashed(soc, "leader crash");
    if (gi == groups.size())
        return 0.0;

    GroupState &g = *groups[gi];
    const bool wasLeader = g.socs.front() == soc;
    g.socs.erase(std::remove(g.socs.begin(), g.socs.end(), soc),
                 g.socs.end());

    // Detecting the dead leader costs one timeout + one backoff;
    // re-forming the leader ring re-runs the delayed aggregation over
    // the new leader set.
    double recoveryS =
        engine.syncPolicy().timeoutS + engine.syncPolicy().backoffBaseS;
    bool elected = false;
    sim::SocId newLeader = 0;
    if (g.socs.empty()) {
        // The leader died with its whole group: the partial aggregate
        // it alone held is lost. Fall back to the consensus weights
        // the surviving groups carry -- i.e. drop the group.
        if (groups.size() == 1)
            fatal("SoC ", soc,
                  " was the last leader and no live SoC remains");
        groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(gi));
    } else if (wasLeader) {
        // Deterministic re-election: highest surviving SoC id leads.
        auto it = std::max_element(g.socs.begin(), g.socs.end());
        std::iter_swap(g.socs.begin(), it);
        newLeader = g.socs.front();
        elected = true;
    }
    if (groups.size() > 1) {
        std::vector<sim::SocId> leaders;
        for (const auto &grp : groups)
            leaders.push_back(grp->socs.front());
        recoveryS += leaderAggregateSeconds(std::move(leaders));
    }
    rebuildTopology();

    if (elected) {
        ++tally.leaderElections;
        trainerMetrics().leaderElections.add(1.0);
    }
    timeline.mix(std::uint64_t{0x4c}); // 'L': leader recovery
    timeline.mix(static_cast<std::uint64_t>(soc));
    timeline.mix(std::uint64_t{elected ? 1u : 0u});
    timeline.mix(recoveryS);
    chargeRecovery("leader election", recoveryS,
                   {{"soc", static_cast<double>(soc)},
                    {"elected", elected ? 1.0 : 0.0}});
    if (elected) {
        inform("leader SoC ", soc, " crashed; SoC ", newLeader,
               " elected (highest surviving id), leader ring "
               "re-formed");
    } else {
        inform("SoC ", soc, " crashed in the leader ring; ",
               groups.size(), " groups remain");
    }
    return recoveryS;
}

sim::SocId
SoCFlowTrainer::groupLeader(std::size_t g) const
{
    SOCFLOW_ASSERT(g < groups.size(), "group out of range");
    return groups[g]->socs.front();
}

std::vector<sim::SocId>
SoCFlowTrainer::groupMembers(std::size_t g) const
{
    SOCFLOW_ASSERT(g < groups.size(), "group out of range");
    return groups[g]->socs;
}

void
SoCFlowTrainer::rebuildTopology()
{
    obs::ScopedSpan span(obs::tracer(), "rebuildTopology", "trainer");
    mapping.members.clear();
    for (const auto &g : groups)
        mapping.members.push_back(g->socs);
    plan = planCommGroups(
        conflictGraph(mapping, cluster.config().socsPerBoard));
    invalidateSyncCosts();
    // New groups may exist; re-emit track names on the next epoch.
    obsTracksNamed = false;
    groupDigests.clear();
    trainerMetrics().rebuilds.add(1.0);
    trainerMetrics().activeGroups.set(
        static_cast<double>(groups.size()));
    assertMembershipInvariants();
}

void
SoCFlowTrainer::bumpGeneration()
{
    gate.bump();
    for (auto &g : groups)
        g->generation = gate.current();
}

void
SoCFlowTrainer::heartbeatSweep(double step_start_s,
                               double step_compute_s)
{
    double maxPhi = 0.0;
    for (const auto &g : groups) {
        for (sim::SocId s : g->socs) {
            if (!eligible(s))
                continue;
            double rate = 1.0;
            if (faults)
                rate = std::max(faults->computeFactor(s), 1e-6);
            const double arrival =
                step_start_s + step_compute_s / rate;
            maxPhi = std::max(maxPhi, detector.phi(s, arrival));
            detector.heartbeat(s, arrival);
        }
    }
    peakPhi = std::max(peakPhi, maxPhi);
    trainerMetrics().suspicionMax.set(maxPhi);
}

bool
SoCFlowTrainer::eligible(sim::SocId soc) const
{
    if (deadSocs.count(soc) || isolatedSocs.count(soc))
        return false;
    bool admissible =
        !faults || (faults->socAlive(soc) &&
                    faults->boardReachable(cluster.board(soc)));
    for (const PausedGroup &pg : pausedGroups) {
        const auto &socs = pg.state->socs;
        admissible = admissible &&
                     std::find(socs.begin(), socs.end(), soc) == socs.end();
    }
    // A member also listed in a parked group (it rejoined while that
    // group waited) keeps its place too.
    return admissible || owningGroup(soc) != groups.size();
}

std::vector<sim::SocId>
SoCFlowTrainer::liveMembers() const
{
    std::vector<sim::SocId> live;
    for (const auto &g : groups)
        for (sim::SocId s : g->socs)
            if (eligible(s))
                live.push_back(s);
    // A SoC that rejoined while its parked group waited is listed
    // twice once that group resumes; it maps once.
    std::sort(live.begin(), live.end());
    live.erase(std::unique(live.begin(), live.end()), live.end());
    return live;
}

void
SoCFlowTrainer::remapOnto(const std::vector<sim::SocId> &live)
{
    SOCFLOW_ASSERT(!live.empty(), "no live SoC to re-map");
    // A group that lost its last live member cannot be kept.
    while (groups.size() > live.size())
        groups.pop_back();
    const Mapping remap =
        mapGroupsOnto(live, cluster.config().socsPerBoard,
                      groups.size(), cfg.mapping);
    for (std::size_t g = 0; g < groups.size(); ++g)
        groups[g]->socs = remap.members[g];
}

void
SoCFlowTrainer::assertMembershipInvariants() const
{
    // Every live member belongs to exactly one group.
    std::set<sim::SocId> seen;
    for (const auto &g : groups) {
        SOCFLOW_ASSERT(!g->socs.empty(), "empty active group");
        for (sim::SocId s : g->socs) {
            SOCFLOW_ASSERT(seen.insert(s).second,
                           "SoC mapped into two groups");
            SOCFLOW_ASSERT(!deadSocs.count(s),
                           "dead SoC still mapped");
        }
    }
    // Theorems 1/2 must survive re-mapping over the live membership:
    // under the integrity-greedy mapping the conflict graph stays a
    // union of chains (every split group conflicts with at most two
    // others), so the CG schedule never needs more than two waves.
    if (cfg.mapping == MapStrategy::IntegrityGreedy &&
        cfg.usePlanning) {
        const auto adj =
            conflictGraph(mapping, cluster.config().socsPerBoard);
        for (const auto &neighbours : adj) {
            SOCFLOW_ASSERT(
                neighbours.size() <= 2,
                "conflict graph is no longer a union of chains");
        }
        SOCFLOW_ASSERT(plan.numCommGroups <= 2,
                       "CG schedule needs more than two waves");
        // On a fleet the same invariants re-derive at rack
        // granularity (mapping.hh): rack-split groups chain with at
        // most two neighbours, so the cross-rack waves of the cluster
        // ring 2-color exactly like board-level waves.
        if (cluster.numRacks() > 1) {
            const auto rackAdj = rackConflictGraph(
                mapping, cluster.config().socsPerRack());
            for (const auto &neighbours : rackAdj) {
                SOCFLOW_ASSERT(neighbours.size() <= 2,
                               "rack conflict graph is no longer a "
                               "union of chains");
            }
            SOCFLOW_ASSERT(
                planCommGroups(rackAdj).numCommGroups <= 2,
                "rack-level CG schedule needs more than two waves");
        }
    }
}

void
SoCFlowTrainer::handlePartition(const fault::FaultSpec &spec)
{
    if (!faults)
        return;

    // Split the live membership by board reachability.
    std::vector<sim::SocId> reachable, cut;
    for (const auto &g : groups) {
        for (sim::SocId s : g->socs) {
            if (!eligible(s))
                continue;
            if (faults->boardReachable(cluster.board(s)))
                reachable.push_back(s);
            else
                cut.push_back(s);
        }
    }
    ++tally.partitions;
    timeline.mix(std::uint64_t{0x50}); // 'P': partition
    timeline.mix(static_cast<std::uint64_t>(spec.board));
    timeline.mix(static_cast<std::uint64_t>(cut.size()));
    obs::tracer().recordInstant(fault::faultKindName(spec.kind), "fault",
                                obs::kTrackControl, simClockS);
    if (cut.empty())
        return; // the cut grazed only idle boards

    // Detection is not free: the phi detector confirms each cut SoC
    // only after its adaptive detection latency, plus one sync
    // timeout for the in-flight collective that first hit the hole.
    double detectS = engine.syncPolicy().timeoutS;
    for (sim::SocId s : cut)
        detectS = std::max(detectS, detector.detectionLatencyS(s) +
                                        engine.syncPolicy().timeoutS);

    const std::size_t totalLive = reachable.size() + cut.size();
    sim::SocId lowest = cut.front();
    for (sim::SocId s : reachable)
        lowest = std::min(lowest, s);
    for (sim::SocId s : cut)
        lowest = std::min(lowest, s);

    if (!membership::hasQuorum(reachable, totalLive, lowest)) {
        // The reachable side is the minority: nobody may train.
        // Groups stay exactly as they are -- state preserved -- and
        // every epoch pauses until the cut heals.
        quorumLost = true;
        tally.recoverySeconds += detectS;
        timeline.mix(std::uint64_t{0});
        simClockS += detectS;
        warn(fault::faultKindName(spec.kind), " cut ", cut.size(),
             " of ", totalLive, " live SoCs and no side holds "
             "quorum; training paused, state preserved");
        return;
    }
    timeline.mix(std::uint64_t{1});

    // Majority side trains on: park fully-cut groups with their state
    // intact, strip cut members out of mixed groups, then re-map and
    // re-plan the survivors under a new generation. The parked side's
    // stale generation is what fences its traffic at heal time.
    const std::uint64_t staleGen = gate.current();
    std::size_t parked = 0, stripped = 0;
    for (std::size_t i = groups.size(); i-- > 0;) {
        GroupState &g = *groups[i];
        bool anyReachable = false;
        for (sim::SocId s : g.socs) {
            if (!deadSocs.count(s) &&
                faults->boardReachable(cluster.board(s))) {
                anyReachable = true;
                break;
            }
        }
        if (!anyReachable) {
            if (groups.size() == 1)
                break; // never park the last group; pause instead
            for (sim::SocId s : g.socs)
                isolatedSinceS.emplace(s, simClockS);
            pausedGroups.push_back(
                {std::move(groups[i]), staleGen, simClockS});
            groups.erase(groups.begin() +
                         static_cast<std::ptrdiff_t>(i));
            ++parked;
        } else {
            for (auto it = g.socs.begin(); it != g.socs.end();) {
                if (!deadSocs.count(*it) &&
                    !faults->boardReachable(cluster.board(*it))) {
                    isolatedSocs.insert(*it);
                    isolatedSinceS.emplace(*it, simClockS);
                    detector.forget(*it);
                    ++stripped;
                    it = g.socs.erase(it);
                } else {
                    ++it;
                }
            }
        }
    }
    remapOnto(liveMembers());
    rebuildTopology();
    bumpGeneration();

    chargeRecovery("partition fence", detectS,
                   {{"cut_socs", static_cast<double>(cut.size())},
                    {"parked_groups", static_cast<double>(parked)},
                    {"generation", static_cast<double>(gate.current())}});
    inform(fault::faultKindName(spec.kind), " cut ", cut.size(),
           " SoCs; majority of ", reachable.size(),
           " trains on under generation ", gate.current(), " (",
           parked, " groups parked, ", stripped, " members isolated)");
}

void
SoCFlowTrainer::handleRackPowerLoss(const fault::FaultSpec &spec)
{
    // spec.board carries the first rack lost; spec.count how many
    // racks go down with it. Synchronized group-wise training cannot
    // commit an epoch with any rack's volatile state gone, so the
    // trainer fail-stops fleet-wide: the epoch in flight aborts and
    // nothing trains until a durable-checkpoint restore. This is the
    // one fault that actually LOSES state -- unlike a partition
    // (state preserved across the cut) or a crash (survivors keep
    // consensus), a power cycle wipes every machine's memory; only
    // the replicated checkpoint store (src/ckpt) survives it.
    const std::size_t firstRack = spec.board;
    const std::size_t racksLost = std::max<std::size_t>(spec.count, 1);
    fleetDown = true;
    timeline.mix(std::uint64_t{0x42}); // 'B': blackout (power loss)
    timeline.mix(static_cast<std::uint64_t>(firstRack));
    timeline.mix(static_cast<std::uint64_t>(racksLost));
    obs::tracer().recordInstant("rack power loss", "fault",
                                obs::kTrackControl, simClockS);
    obs::flightRecorder().dumpPostMortem("rack-power-loss",
                                         timeline.value());
    warn("rack power loss at epoch ", epochCounter, ": racks [",
         firstRack, ", ", firstRack + racksLost,
         ") down; volatile training state lost, awaiting "
         "durable-checkpoint restore");
}

void
SoCFlowTrainer::healMemberships()
{
    if (!faults)
        return;
    obs::Tracer &tr = obs::tracer();
    const auto reachableNow = [this](sim::SocId s) {
        return faults->boardReachable(cluster.board(s));
    };

    if (quorumLost) {
        // The whole cluster paused; it resumes only on a full heal
        // (every live member reachable again).
        for (const auto &g : groups)
            for (sim::SocId s : g->socs)
                if (eligible(s) && !reachableNow(s))
                    return;
        quorumLost = false;
        bumpGeneration();
        timeline.mix(std::uint64_t{0x48}); // 'H': heal, quorum back
        timeline.mix(gate.current());
        tr.recordInstant("partition healed (quorum restored)",
                         "fault", obs::kTrackControl, simClockS);
        inform("partition healed; training resumes under generation ",
               gate.current());
    }

    std::size_t rejoined = 0;
    double longestDownS = 0.0;
    bool changed = false;

    // Resume groups parked on the minority side whose boards are back.
    for (std::size_t i = pausedGroups.size(); i-- > 0;) {
        PausedGroup &pg = pausedGroups[i];
        auto &socs = pg.state->socs;
        // Members that died while parked never come back.
        socs.erase(std::remove_if(socs.begin(), socs.end(),
                                  [this](sim::SocId s) {
                                      return deadSocs.count(s) != 0 ||
                                             !faults->socAlive(s);
                                  }),
                   socs.end());
        if (socs.empty()) {
            pausedGroups.erase(pausedGroups.begin() +
                               static_cast<std::ptrdiff_t>(i));
            continue;
        }
        bool allReachable = true;
        for (sim::SocId s : socs)
            allReachable = allReachable && reachableNow(s);
        if (!allReachable)
            continue;

        // The returning leader replays its pre-partition leader-ring
        // traffic stamped with the stale generation; the fenced ring
        // rejects that contribution before any reduction forms (the
        // split-brain guard in action), and the group is restored
        // from the majority's consensus instead.
        if (!groups.empty()) {
            std::vector<sim::SocId> ring;
            std::vector<std::uint64_t> stamps;
            for (const auto &g : groups) {
                ring.push_back(g->socs.front());
                stamps.push_back(g->generation);
            }
            ring.push_back(socs.front());
            stamps.push_back(pg.staleGeneration);
            const collectives::SyncOutcome fencedSync =
                engine.ringAllReduceFenced(ring, profile.paramBytes(),
                                           stamps, gate.current());
            fencedTotal += fencedSync.fencedStale;
            tally.recoverySeconds += fencedSync.stats.seconds;

            pg.state->restore(globalWeights());
        }
        for (sim::SocId s : socs)
            longestDownS = std::max(longestDownS, rejoinLatency(s, 0.0));
        rejoined += socs.size();
        groups.push_back(std::move(pg.state));
        // Current from here on: the next parked group's fenced ring
        // must admit it.
        groups.back()->generation = gate.current();
        pausedGroups.erase(pausedGroups.begin() +
                           static_cast<std::ptrdiff_t>(i));
        changed = true;
    }

    // Fold members stripped from mixed groups back in.
    for (auto it = isolatedSocs.begin(); it != isolatedSocs.end();) {
        const sim::SocId s = *it;
        if (deadSocs.count(s) || !faults->socAlive(s)) {
            it = isolatedSocs.erase(it); // died while isolated
            continue;
        }
        if (!reachableNow(s)) {
            ++it;
            continue;
        }
        double downS = 0.0;
        tally.recoverySeconds += admitCaughtUp(s, downS);
        longestDownS = std::max(longestDownS, downS);
        ++rejoined;
        it = isolatedSocs.erase(it);
        changed = true;
    }

    if (changed) {
        remapOnto(liveMembers());
        rebuildTopology();
        bumpGeneration();
        tally.rejoins += rejoined;
        trainerMetrics().rejoins.add(static_cast<double>(rejoined));
        timeline.mix(std::uint64_t{0x52}); // 'R': rejoin wave
        timeline.mix(static_cast<std::uint64_t>(rejoined));
        timeline.mix(gate.current());
        tr.recordSpan("membership heal", "fault", obs::kTrackControl,
                      simClockS, longestDownS,
                      {{"rejoined", static_cast<double>(rejoined)},
                       {"generation",
                        static_cast<double>(gate.current())}});
        inform("membership healed: ", rejoined,
               " SoCs rejoined; generation ", gate.current(), ", ",
               pausedGroups.size(), " groups still parked");
    }
}

void
SoCFlowTrainer::rejoinSoc(sim::SocId soc)
{
    // Already an active member (e.g. a plan rejoin targeting a SoC
    // that never actually died): nothing to do.
    if (owningGroup(soc) != groups.size())
        return;
    if (faults && !faults->boardReachable(cluster.board(soc))) {
        // Back up, but behind an active cut: it queues for the heal.
        isolatedSocs.insert(soc);
        isolatedSinceS.emplace(soc, simClockS);
        return;
    }
    deadSocs.erase(soc);
    isolatedSocs.erase(soc);

    // Catch-up protocol, then re-map the live set.
    double downS = 0.0;
    const double catchUpS = admitCaughtUp(soc, downS);
    remapOnto(liveMembers());
    rebuildTopology();
    bumpGeneration();

    ++tally.rejoins;
    trainerMetrics().rejoins.add(1.0);
    timeline.mix(std::uint64_t{0x4a}); // 'J': SoC rejoin
    timeline.mix(static_cast<std::uint64_t>(soc));
    timeline.mix(gate.current());
    chargeRecovery("soc rejoin", catchUpS,
                   {{"soc", static_cast<double>(soc)},
                    {"down_seconds", downS},
                    {"generation", static_cast<double>(gate.current())}});
    inform("SoC ", soc, " rejoined after ", downS,
           " s; caught up from its leader under generation ",
           gate.current());
}

double
SoCFlowTrainer::admitCaughtUp(sim::SocId soc, double &downS)
{
    const double catchUpS =
        engine.broadcast(groups.front()->socs.front(), {soc},
                         profile.paramBytes())
            .seconds;
    downS = rejoinLatency(soc, catchUpS);
    groups.front()->socs.push_back(soc);
    return catchUpS;
}

double
SoCFlowTrainer::rejoinLatency(sim::SocId soc, double fallbackS)
{
    double downS = fallbackS;
    auto it = isolatedSinceS.find(soc);
    if (it != isolatedSinceS.end()) {
        downS = simClockS - it->second;
        isolatedSinceS.erase(it);
    }
    trainerMetrics().rejoinDigest.observe(downS);
    return downS;
}

std::vector<float>
SoCFlowTrainer::pausedGroupWeights(std::size_t i) const
{
    SOCFLOW_ASSERT(i < pausedGroups.size(),
                   "paused group out of range");
    return pausedGroups[i].state->fp32.flatParams();
}

std::vector<float>
SoCFlowTrainer::globalWeights() const
{
    return groups.front()->fp32.flatParams();
}

std::vector<float>
SoCFlowTrainer::groupWeights(std::size_t g) const
{
    SOCFLOW_ASSERT(g < groups.size(), "group out of range");
    return groups[g]->fp32.flatParams();
}

double
SoCFlowTrainer::groupMomentumNorm(std::size_t g) const
{
    SOCFLOW_ASSERT(g < groups.size(), "group out of range");
    return groups[g]->sgd->velocityNorm();
}

/*
 * Blob layout: a kBlobMagic envelope (core/checkpoint.hh) whose
 * payload is [epoch u64][alpha f64][weights f32 x n] in host byte
 * order. The weight count is implied by the envelope length, so a
 * blob is exactly 40 + 4n bytes -- the size replica writes are
 * priced on.
 */
std::vector<std::uint8_t>
SoCFlowTrainer::saveCheckpoint() const
{
    obs::ScopedSpan span(obs::tracer(), "saveCheckpoint", "checkpoint");
    const std::vector<float> w = globalWeights();
    const std::uint64_t epoch = epochCounter;
    const double alphaVal = mpc.alpha();

    std::vector<std::uint8_t> payload(sizeof(epoch) + sizeof(alphaVal) +
                                      w.size() * sizeof(float));
    std::uint8_t *p = payload.data();
    std::memcpy(p, &epoch, sizeof(epoch));
    p += sizeof(epoch);
    std::memcpy(p, &alphaVal, sizeof(alphaVal));
    p += sizeof(alphaVal);
    std::memcpy(p, w.data(), w.size() * sizeof(float));
    trainerMetrics().checkpointSaves.add(1.0);
    return sealEnvelope(kBlobMagic, payload);
}

void
SoCFlowTrainer::loadCheckpoint(const std::vector<std::uint8_t> &bytes)
{
    obs::ScopedSpan span(obs::tracer(), "loadCheckpoint", "checkpoint");
    // Validate the whole blob before touching any trainer state, so
    // a corrupted checkpoint leaves the trainer usable.
    const auto reject = [](const std::string &why) {
        trainerMetrics().checkpointErrors.add(1.0);
        throw CheckpointError("bad checkpoint blob: " + why);
    };

    std::vector<std::uint8_t> payload;
    try {
        payload = openEnvelope(kBlobMagic, bytes);
    } catch (const CheckpointError &e) {
        reject(e.what());
    }
    std::uint64_t epoch = 0;
    double alphaVal = 1.0;
    const std::size_t fixed = sizeof(epoch) + sizeof(alphaVal);
    if (payload.size() < fixed ||
        (payload.size() - fixed) % sizeof(float) != 0)
        reject("payload size mismatch");
    const std::size_t n = (payload.size() - fixed) / sizeof(float);
    const std::uint8_t *p = payload.data();
    std::memcpy(&epoch, p, sizeof(epoch));
    p += sizeof(epoch);
    std::memcpy(&alphaVal, p, sizeof(alphaVal));
    p += sizeof(alphaVal);
    if (n != groups.front()->fp32.flatParams().size())
        reject("weight count does not match the built model");
    if (!(alphaVal >= 0.0 && alphaVal <= 1.0))
        reject("alpha out of range");

    std::vector<float> w(n);
    std::memcpy(w.data(), p, n * sizeof(float));
    for (auto &g : groups)
        g->restore(w);
    epochCounter = epoch;
    mpc.setAlpha(alphaVal);
    trainerMetrics().checkpointLoads.add(1.0);
}

std::size_t
SoCFlowTrainer::restoreAfterPowerLoss(
    const std::vector<std::uint8_t> &bytes)
{
    obs::ScopedSpan span(obs::tracer(), "restoreAfterPowerLoss",
                         "checkpoint");
    const std::size_t epochsBefore = epochCounter;
    // Boot state of a power-cycled fleet: every volatile structure
    // (group replicas, momentum, dead sets, pauses, isolation, the
    // failure detector's arrival windows) is rebuilt exactly as the
    // constructor built it. The data RNG is deliberately NOT rewound
    // -- the restarted fleet draws fresh shards, like any real
    // restart would.
    bootGroups(nullptr);
    // loadCheckpoint validates everything before mutating weights; a
    // corrupt blob throws here and the fleet STAYS down (groups are
    // rebooted but fleetDown holds until a valid restore), so the
    // caller can try the next surviving replica.
    loadCheckpoint(bytes);
    fleetDown = false;
    // Everything that survived did so through durable storage; any
    // pre-outage in-flight traffic that somehow resurfaces must be
    // fenced as stale -- but the rebooted groups themselves restart
    // current, or the first post-restore aggregation would fence its
    // own members.
    bumpGeneration();

    // RPO accounting: epochs completed after the restored checkpoint
    // was taken are lost work (the aborted epoch itself never closed,
    // so it is not counted -- nothing of it was ever durable).
    const std::size_t lost =
        epochsBefore > epochCounter ? epochsBefore - epochCounter : 0;
    static obs::Gauge &lostWork =
        obs::metrics().gauge("ckpt_lost_work_epochs");
    lostWork.set(static_cast<double>(lost));

    timeline.mix(std::uint64_t{0x56}); // 'V': power-loss restore
    timeline.mix(static_cast<std::uint64_t>(epochCounter));
    timeline.mix(static_cast<std::uint64_t>(lost));
    timeline.mix(gate.current());
    obs::tracer().recordInstant("fleet restored from checkpoint",
                                "checkpoint", obs::kTrackControl,
                                simClockS);
    inform("fleet restored from durable checkpoint at epoch ",
           epochCounter, " (", lost,
           " epochs of work lost, generation ", gate.current(), ")");
    return lost;
}

} // namespace core
} // namespace socflow
