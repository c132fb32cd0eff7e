#include "ps/sharded_ps.hh"

#include <algorithm>
#include <cmath>

#include "data/dataset.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "sim/energy.hh"
#include "util/logging.hh"

namespace socflow {
namespace ps {

namespace {

sim::ClusterConfig
clusterFor(const ShardedPsConfig &cfg)
{
    sim::ClusterConfig c = cfg.clusterTemplate;
    c.numSocs = cfg.numSocs;
    return c;
}

nn::Model
buildInitial(const ShardedPsConfig &cfg, const data::DataBundle &b,
             const std::vector<float> *initial)
{
    Rng init_rng(cfg.seed ^ 0xbeef);
    nn::Model m = nn::buildModel(cfg.modelFamily, b.spec, init_rng);
    if (initial)
        m.setFlatParams(*initial);
    return m;
}

/** Hot-path counters, cached once. */
struct PsMetrics {
    obs::Counter &pushes;
    obs::Counter &pulls;
    obs::Counter &pushBytes;
    obs::Counter &pullBytes;
    obs::Counter &failoverTotal;
    obs::Counter &rebalanceTotal;
    obs::Counter &stalenessBlocks;
    obs::Counter &fencedPushes;
    obs::Counter &pausedEpochs;
    obs::Gauge &stalenessAge;
    PsMetrics()
        : pushes(obs::metrics().counter("ps_push_total")),
          pulls(obs::metrics().counter("ps_pull_total")),
          pushBytes(obs::metrics().counter("ps_push_bytes_total")),
          pullBytes(obs::metrics().counter("ps_pull_bytes_total")),
          failoverTotal(
              obs::metrics().counter("shard_failover_total")),
          rebalanceTotal(obs::metrics().counter("ps_rebalance_total")),
          stalenessBlocks(
              obs::metrics().counter("ps_staleness_blocks_total")),
          fencedPushes(
              obs::metrics().counter("ps_fenced_pushes_total")),
          pausedEpochs(obs::metrics().counter("ps_paused_epochs_total")),
          stalenessAge(obs::metrics().gauge("ps_staleness_age_max"))
    {
    }
};

PsMetrics &
psMetrics()
{
    static PsMetrics m;
    return m;
}

} // namespace

ShardedPsTrainer::ShardedPsTrainer(ShardedPsConfig config,
                                   const data::DataBundle &bundle_in,
                                   const std::vector<float> *initial)
    : cfg(std::move(config)), bundle(bundle_in),
      profile(sim::modelProfile(cfg.modelFamily)),
      cluster(clusterFor(cfg)), engine(cluster),
      model(buildInitial(cfg, bundle_in, initial)),
      map(ShardMapConfig{cfg.numShards, model.paramCount(),
                         cfg.numSocs,
                         cluster.config().socsPerBoard}),
      learningRate(cfg.sgd.learningRate), rng(cfg.seed)
{
    engine.setSyncPolicy(cfg.sync);
    global = model.flatParams();
    velocity.assign(global.size(), 0.0f);

    const auto &servers = map.servers();
    for (std::size_t soc = 0; soc < cfg.numSocs; ++soc) {
        if (std::find(servers.begin(), servers.end(),
                      static_cast<sim::SocId>(soc)) != servers.end())
            continue;
        Worker w;
        w.soc = static_cast<sim::SocId>(soc);
        w.snapshot = global;
        // Maximally stale at start: every worker must pull before its
        // first gradient (the bound is enforced, not advisory).
        w.sincePull = cfg.staleness + 1;
        workers.push_back(std::move(w));
    }
    if (workers.empty())
        fatal("sharded PS needs at least one non-server SoC: ",
              cfg.numSocs, " SoCs, ", servers.size(), " servers");
    active.resize(workers.size());
    for (std::size_t i = 0; i < workers.size(); ++i)
        active[i] = i;
}

void
ShardedPsTrainer::attachFaultInjector(fault::FaultInjector *inj)
{
    faults = inj;
    engine.setFaultModel(inj);
}

bool
ShardedPsTrainer::usable(sim::SocId soc) const
{
    if (!faults)
        return true;
    return faults->socAlive(soc) &&
           faults->boardReachable(cluster.board(soc));
}

bool
ShardedPsTrainer::refreshMembership(core::EpochRecord &rec)
{
    (void)rec;
    active.clear();
    std::vector<sim::SocId> side;
    std::size_t totalLive = 0;
    sim::SocId lowestLive = 0;
    bool haveLowest = false;
    for (std::size_t soc = 0; soc < cfg.numSocs; ++soc) {
        const auto id = static_cast<sim::SocId>(soc);
        if (faults && !faults->socAlive(id))
            continue;
        ++totalLive;
        if (!haveLowest) {
            lowestLive = id;
            haveLowest = true;
        }
        if (!faults || faults->boardReachable(cluster.board(id)))
            side.push_back(id);
    }
    for (std::size_t i = 0; i < workers.size(); ++i)
        if (usable(workers[i].soc))
            active.push_back(i);

    if (totalLive == 0 || active.empty())
        return false;
    return membership::hasQuorum(side, totalLive, lowestLive);
}

void
ShardedPsTrainer::noteFired(const std::vector<fault::FaultSpec> &fired,
                            core::EpochRecord &rec)
{
    for (const fault::FaultSpec &s : fired) {
        timeline.mix(static_cast<std::uint64_t>(s.kind));
        timeline.mix(static_cast<std::uint64_t>(s.epoch));
        timeline.mix(static_cast<std::uint64_t>(s.step));
        timeline.mix(static_cast<std::uint64_t>(s.soc));
        timeline.mix(static_cast<std::uint64_t>(s.board));
        switch (s.kind) {
          case fault::FaultKind::SocCrash:
          case fault::FaultKind::SocCrashMidWave:
          case fault::FaultKind::LeaderCrash:
          case fault::FaultKind::PsServerCrash:
            ++rec.crashes;
            rec.recoverySeconds += cfg.sync.timeoutS;
            break;
          case fault::FaultKind::BoardPartition:
          case fault::FaultKind::SwitchPartition:
            ++rec.partitions;
            break;
          case fault::FaultKind::SocRejoin:
            ++rec.rejoins;
            // A rejoining SoC lost its snapshot: force a pull before
            // its next gradient so it can never push over-stale work.
            for (Worker &w : workers) {
                if (w.soc == s.soc)
                    w.sincePull = cfg.staleness + 1;
            }
            break;
          default:
            break;
        }
    }
}

void
ShardedPsTrainer::runFailover(core::EpochRecord &rec)
{
    const auto moves =
        map.failover([this](sim::SocId s) { return usable(s); });
    if (moves.empty())
        return;
    const double nicRate = cluster.config().boardNicBps / 8.0;
    const double perParamBytes =
        model.paramCount()
            ? profile.paramBytes() /
                  static_cast<double>(model.paramCount())
            : 0.0;
    for (const ShardMove &mv : moves) {
        ++failovers;
        psMetrics().failoverTotal.add(1.0);
        const ShardRange &r = map.range(mv.shard);
        // The new owner restores the shard's weights from the chain
        // replica (acked pushes survive); only the optimizer momentum
        // slice is lost and resets to zero -- the state-loss table in
        // DESIGN.md ch. 11.
        std::fill(velocity.begin() + static_cast<long>(r.begin),
                  velocity.begin() + static_cast<long>(r.end), 0.0f);
        const double shardBytes =
            perParamBytes * static_cast<double>(r.count());
        rec.recoverySeconds += cfg.sync.timeoutS +
                               cfg.sync.backoffBaseS +
                               shardBytes / nicRate +
                               cluster.config().messageLatencyS;
        timeline.mix(static_cast<std::uint64_t>(0xFA170BE5ULL));
        timeline.mix(static_cast<std::uint64_t>(mv.shard));
        timeline.mix(static_cast<std::uint64_t>(mv.from));
        timeline.mix(static_cast<std::uint64_t>(mv.to));
        timeline.mix(map.gate().current());
    }
}

void
ShardedPsTrainer::applyPush(const std::vector<float> &grads)
{
    // Same math as nn::Sgd, element-wise on the flat vectors so a
    // failed-over shard's momentum slice can be reset independently.
    float clipScale = 1.0f;
    if (cfg.sgd.clipNorm > 0.0) {
        double sq = 0.0;
        for (float g : grads)
            sq += static_cast<double>(g) * g;
        const double norm = std::sqrt(sq);
        if (norm > cfg.sgd.clipNorm)
            clipScale = static_cast<float>(cfg.sgd.clipNorm / norm);
    }
    const float lr = static_cast<float>(learningRate);
    const float mu = static_cast<float>(cfg.sgd.momentum);
    const float wd = static_cast<float>(cfg.sgd.weightDecay);
    for (std::size_t i = 0; i < global.size(); ++i) {
        const float grad = clipScale * grads[i] + wd * global[i];
        velocity[i] = mu * velocity[i] + grad;
        global[i] -= lr * velocity[i];
    }
}

void
ShardedPsTrainer::digestShards()
{
    if (shardDigests.empty()) {
        shardDigests.reserve(map.numShards());
        for (std::size_t s = 0; s < map.numShards(); ++s) {
            shardDigests.push_back(&obs::metrics().gauge(
                "ps_shard_digest",
                {{"shard", std::to_string(s)}}));
        }
    }
    for (std::size_t s = 0; s < map.numShards(); ++s) {
        const ShardRange &r = map.range(s);
        const std::uint32_t crc =
            r.count() ? crc32(global.data() + r.begin,
                              r.count() * sizeof(float))
                      : 0;
        shardDigests[s]->set(static_cast<double>(crc));
        timeline.mix(static_cast<std::uint64_t>(crc));
    }
}

void
ShardedPsTrainer::maybeRebalance(const collectives::PsExchange &ex,
                                 core::EpochRecord &rec,
                                 double &migration_s)
{
    if (cfg.rebalanceFactor <= 0.0 || ex.endpoints.size() < 2)
        return;
    // Owning endpoints only (zero-byte servers host nothing).
    std::size_t hot = ex.endpoints.size();
    double hotDrain = 0.0, otherSum = 0.0;
    std::size_t others = 0;
    for (std::size_t i = 0; i < ex.endpoints.size(); ++i) {
        const auto &ep = ex.endpoints[i];
        if (ep.pushBytes <= 0.0)
            continue;
        if (hot == ex.endpoints.size() ||
            ep.pushSeconds > hotDrain) {
            if (hot != ex.endpoints.size()) {
                otherSum += hotDrain;
                ++others;
            }
            hot = i;
            hotDrain = ep.pushSeconds;
        } else {
            otherSum += ep.pushSeconds;
            ++others;
        }
    }
    if (hot == ex.endpoints.size() || others == 0)
        return;
    const double mean = otherSum / static_cast<double>(others);
    if (mean <= 0.0 || hotDrain <= cfg.rebalanceFactor * mean)
        return;

    const sim::SocId donor = ex.endpoints[hot].server;
    const auto owned = map.shardsOwnedBy(donor);
    if (owned.empty())
        return;
    // Smallest shard moves (least migration traffic), to the
    // least-loaded usable endpoint.
    std::size_t shard = owned.front();
    for (std::size_t s : owned)
        if (map.range(s).count() < map.range(shard).count())
            shard = s;
    sim::SocId target = donor;
    double targetDrain = 0.0;
    bool haveTarget = false;
    for (const auto &ep : ex.endpoints) {
        if (ep.server == donor || !usable(ep.server))
            continue;
        if (!haveTarget || ep.pushSeconds < targetDrain ||
            (ep.pushSeconds == targetDrain && ep.server < target)) {
            target = ep.server;
            targetDrain = ep.pushSeconds;
            haveTarget = true;
        }
    }
    if (!haveTarget || !map.rebalance(shard, target))
        return;

    ++rebalances;
    psMetrics().rebalanceTotal.add(1.0);
    // A planned move is a coordinated view change: live workers learn
    // the new generation synchronously, so unlike failover it fences
    // nothing.
    for (std::size_t i : active)
        workers[i].gen = map.gate().current();
    const double perParamBytes =
        model.paramCount()
            ? profile.paramBytes() /
                  static_cast<double>(model.paramCount())
            : 0.0;
    const double shardBytes =
        perParamBytes * static_cast<double>(map.range(shard).count());
    (void)rec;
    migration_s = shardBytes / (cluster.config().boardNicBps / 8.0) +
                  cluster.config().messageLatencyS;
    timeline.mix(static_cast<std::uint64_t>(0x2EBA1A4CULL));
    timeline.mix(static_cast<std::uint64_t>(shard));
    timeline.mix(static_cast<std::uint64_t>(donor));
    timeline.mix(static_cast<std::uint64_t>(target));
}

core::EpochRecord
ShardedPsTrainer::runEpoch()
{
    core::EpochRecord rec;
    rec.epoch = epochIdx;
    PsMetrics &pm = psMetrics();
    const double paramBytes = profile.paramBytes();

    // Time-attribution profiler (obs/profiler.hh): the PS epoch is a
    // single timeline (slot 0) -- workers stream pushes/pulls while
    // computing, so overlap here is epoch-granular. Passive consumer;
    // enabling it cannot change timings, weights, or the timeline.
    obs::Profiler &prof = obs::profiler();
    const bool profiling = prof.enabled();
    if (profiling) {
        if (!profLayersRegistered) {
            std::vector<std::pair<std::string, std::size_t>> table;
            for (const nn::Param *p : model.params())
                table.emplace_back(p->name, p->value.numel());
            prof.registerLayers(table);
            profLayersRegistered = true;
        }
        prof.beginEpoch(1);
    }

    const auto pull = [&](Worker &w) {
        w.snapshot = global;
        w.sincePull = 0;
        w.gen = map.gate().current();
        pm.pulls.add(1.0);
        pm.pullBytes.add(paramBytes);
    };

    // Epoch start: fire pending faults, expire partition windows,
    // re-check quorum, and re-home shards orphaned since last epoch.
    if (faults) {
        const auto fired = faults->advanceTo(
            fault::FaultPoint{epochIdx, 0,
                              fault::FaultPhase::Compute});
        noteFired(fired, rec);
    }
    bool quorum = refreshMembership(rec);
    if (quorum)
        runFailover(rec);
    if (!quorum || !map.orphaned().empty()) {
        // Minority side (or no surviving shard host): train nothing,
        // preserve all state, resume on heal.
        rec.paused = true;
        rec.simSeconds = cfg.sync.timeoutS;
        pm.pausedEpochs.add(1.0);
        timeline.mix(static_cast<std::uint64_t>(0xDEADBEA7ULL));
        timeline.mix(static_cast<std::uint64_t>(epochIdx));
        if (profiling) {
            prof.addSpan(0, obs::Phase::Paused, 0.0, rec.simSeconds);
            prof.attributeCritical("fault-recovery", rec.simSeconds,
                                   rec.simSeconds);
            prof.noteTimelineHash(timeline.value());
            prof.endEpoch(rec.simSeconds);
        }
        ++epochIdx;
        return rec;
    }

    data::BatchIterator it(bundle.train.size(), cfg.globalBatch,
                           rng.split());
    double lossSum = 0.0, accSum = 0.0;
    std::size_t sampleSum = 0;
    std::size_t steps = 0;
    double epochMinFactor = 1.0;
    std::size_t epochMaxAge = 0;

    while (!it.epochDone()) {
        const auto idx = it.next();

        // Step-granular fault clock: a shard host can die mid-epoch
        // and the survivors re-home its shards before the next push.
        if (faults) {
            const auto fired = faults->advanceTo(
                fault::FaultPoint{epochIdx, steps,
                                  fault::FaultPhase::Compute});
            if (!fired.empty()) {
                noteFired(fired, rec);
                if (!refreshMembership(rec)) {
                    rec.paused = true;
                    break;
                }
                runFailover(rec);
                if (!map.orphaned().empty()) {
                    rec.paused = true;
                    break;
                }
            }
        }

        auto [x, y] = bundle.train.batch(idx);
        Worker &w = workers[active[steps % active.size()]];

        // Hard staleness bound, enforced *before* compute: a worker
        // past the bound blocks on a pull, it never trains on
        // over-stale weights (staleness = 0 degenerates to a
        // synchronous PS).
        if (w.sincePull > cfg.staleness) {
            pull(w);
            ++blocks;
            pm.stalenessBlocks.add(1.0);
        }
        epochMaxAge = std::max(epochMaxAge, w.sincePull);
        maxAgeSeen = std::max(maxAgeSeen, w.sincePull);

        model.setFlatParams(w.snapshot);
        model.zeroGrad();
        const nn::StepResult r = model.trainStep(x, y);
        if (faults) {
            epochMinFactor = std::min(epochMinFactor,
                                      faults->computeFactor(w.soc));
        }

        // Push, generation-fenced: after an uncoordinated failover
        // the worker's stamp is stale, so its push is rejected at
        // admission (never folded into a shard that moved) and the
        // worker re-pulls.
        if (w.gen < map.gate().current()) {
            map.gate().admit(w.gen);
            ++fenced;
            ++rec.fencedStaleMsgs;
            pm.fencedPushes.add(1.0);
            pull(w);
        } else {
            // CRC-tagged payload: a corrupt arrival is retransmitted
            // under the SyncPolicy envelope; a burst outlasting the
            // budget drops the push as a typed failure -- never a
            // silent wrong sum.
            std::size_t rt = 0;
            bool dropped = false;
            double backoff = cfg.sync.backoffBaseS;
            while (faults && faults->corruptNextChunk()) {
                ++rec.gradCorruptDetected;
                if (rt == cfg.sync.maxRetries) {
                    dropped = true;
                    ++pushDrops;
                    ++rec.syncFailures;
                    break;
                }
                ++rt;
                ++retransmits;
                ++rec.chunksRetransmitted;
                rec.recoverySeconds += backoff;
                backoff = std::min(backoff * cfg.sync.backoffMultiplier,
                                   cfg.sync.backoffMaxS);
            }
            if (!dropped) {
                const std::vector<float> grads = model.flatGrads();
                ++acked;
                applyPush(grads);
                ++applied;
                pm.pushes.add(1.0);
                pm.pushBytes.add(paramBytes);
            }
        }
        ++w.sincePull;

        lossSum += r.loss * static_cast<double>(r.samples);
        accSum += r.accuracy * static_cast<double>(r.samples);
        sampleSum += r.samples;
        ++steps;
    }

    // Epoch-end sweep: faults scheduled past our last batch step
    // still fire inside this epoch (failover lands before the next
    // epoch's first push).
    if (faults) {
        const auto fired = faults->advanceTo(epochIdx);
        if (!fired.empty()) {
            noteFired(fired, rec);
            if (refreshMembership(rec))
                runFailover(rec);
        }
    }

    // Timing: workers stream pushes/pulls while computing; each shard
    // endpoint drains its own board NIC, and the joint max-min solve
    // prices both the per-endpoint incast and cross-endpoint fabric
    // contention.
    const double f = bundle.timeScale();
    const double stepsD = static_cast<double>(steps) * f;
    const std::size_t nActive = std::max<std::size_t>(
        active.empty() ? workers.size() : active.size(), 1);
    const double perWorkerSteps =
        stepsD / static_cast<double>(nActive);
    double computeS = perWorkerSteps *
                      static_cast<double>(cfg.globalBatch) *
                      profile.cpuMsPerSample / 1000.0;
    if (epochMinFactor > 0.0 && epochMinFactor < 1.0)
        computeS /= epochMinFactor;

    double syncS = 0.0;
    collectives::PsExchange ex;
    sim::FlowCapture psCap;
    double profPushShare = 0.5;
    if (steps > 0) {
        const double pullFraction =
            1.0 / static_cast<double>(cfg.staleness + 1);
        std::vector<sim::SocId> workerSocs;
        workerSocs.reserve(active.size());
        for (std::size_t i : active)
            workerSocs.push_back(workers[i].soc);
        const double perParam =
            model.paramCount()
                ? paramBytes / static_cast<double>(model.paramCount())
                : 0.0;
        std::vector<double> pushB(map.servers().size(), 0.0);
        std::vector<double> pullB(map.servers().size(), 0.0);
        for (std::size_t s = 0; s < map.servers().size(); ++s) {
            const double ownedBytes =
                perParam * static_cast<double>(
                               map.paramsOwnedBy(map.servers()[s]));
            pushB[s] = stepsD * ownedBytes /
                       static_cast<double>(nActive);
            pullB[s] = pushB[s] * pullFraction;
        }
        // The capture records where the exchange's time went in the
        // same pass that prices it (sim/flow_network.hh).
        const sim::FlowNetwork &net = cluster.network();
        net.beginCapture(&psCap);
        ex = engine.shardedParamServer(workerSocs, map.servers(),
                                       pushB, pullB,
                                       cfg.chainReplication);
        net.endCapture();
        syncS = ex.stats.seconds;
        if (profiling) {
            double tp = 0.0, tl = 0.0;
            for (std::size_t s = 0; s < map.servers().size(); ++s) {
                tp += pushB[s];
                tl += pullB[s];
            }
            if (tp + tl > 0.0)
                profPushShare = tp / (tp + tl);
        }
        double migrationS = 0.0;
        maybeRebalance(ex, rec, migrationS);
        syncS += migrationS;
    }

    rec.computeSeconds = computeS;
    rec.syncSeconds = syncS;
    rec.updateSeconds = stepsD * profile.updateMsPerBatch / 1000.0;
    rec.simSeconds = std::max(computeS, syncS) + rec.updateSeconds +
                     rec.recoverySeconds;

    if (profiling) {
        // Single-slot span layout: compute and the push/pull streams
        // overlap over [0, max(compute, sync)); update and recovery
        // serialize after. The sync window splits into push/pull by
        // byte share. End-to-end the union tiles [0, simSeconds)
        // exactly (conservation invariant).
        const double spanS = std::max(computeS, syncS);
        if (computeS > 0.0) {
            prof.addSpan(0, obs::Phase::Forward, 0.0, computeS / 3.0);
            prof.addSpan(0, obs::Phase::Backward, computeS / 3.0,
                         computeS);
        }
        const double pushEndS = syncS * profPushShare;
        if (pushEndS > 0.0)
            prof.addSpan(0, obs::Phase::PsPush, 0.0, pushEndS);
        if (syncS > pushEndS)
            prof.addSpan(0, obs::Phase::PsPull, pushEndS, syncS);
        const double updEndS = spanS + rec.updateSeconds;
        prof.addSpan(0, obs::Phase::Update, spanS, updEndS);
        if (rec.recoverySeconds > 0.0) {
            prof.addSpan(0, obs::Phase::Recovery, updEndS,
                         updEndS + rec.recoverySeconds);
            prof.attributeCritical("fault-recovery",
                                   rec.recoverySeconds,
                                   rec.recoverySeconds);
        }
        prof.noteStepWindows(computeS, syncS, true);
        if (computeS >= syncS)
            prof.attributeCritical("compute", computeS,
                                   computeS - syncS);
        else
            prof.attributeCommCritical(syncS, syncS - computeS);
        prof.attributeCritical("optimizer", rec.updateSeconds,
                               rec.updateSeconds);
    }

    sim::EnergyMeter meter;
    meter.accumulate(sim::PowerState::CpuTrain,
                     computeS * static_cast<double>(nActive));
    meter.accumulate(sim::PowerState::Comm, syncS, nActive);
    const double totalSocSeconds =
        rec.simSeconds * static_cast<double>(cfg.numSocs);
    const double busy = (computeS + syncS) *
                        static_cast<double>(nActive);
    if (totalSocSeconds > busy)
        meter.accumulate(sim::PowerState::Idle, totalSocSeconds - busy);
    rec.energyJoules = meter.totalJoules();
    rec.trainLoss = sampleSum ? lossSum / sampleSum : 0.0;
    rec.trainAcc = sampleSum ? accSum / sampleSum : 0.0;

    pm.stalenessAge.set(static_cast<double>(epochMaxAge));
    digestShards();
    timeline.mix(static_cast<std::uint64_t>(epochIdx));
    timeline.mix(static_cast<std::uint64_t>(steps));
    timeline.mix(static_cast<std::uint64_t>(acked));
    timeline.mix(static_cast<std::uint64_t>(fenced));
    timeline.mix(static_cast<std::uint64_t>(blocks));
    timeline.mix(static_cast<std::uint64_t>(retransmits));
    timeline.mix(static_cast<std::uint64_t>(pushDrops));
    timeline.mix(static_cast<std::uint64_t>(failovers));
    timeline.mix(static_cast<std::uint64_t>(rebalances));
    timeline.mix(map.gate().current());
    timeline.mix(rec.simSeconds);

    if (profiling) {
        const sim::FlowNetwork &net = cluster.network();
        for (sim::ResourceId r = 0; r < psCap.usage.size(); ++r) {
            const sim::ResourceUsage &u = psCap.usage[r];
            if (u.busySeconds <= 0.0)
                continue;
            prof.noteResourceUsage(net.name(r), net.capacity(r),
                                   u.busySeconds, u.bytes,
                                   u.bindingSeconds);
        }
        prof.noteTimelineHash(timeline.value());
        prof.endEpoch(rec.simSeconds);
    }

    learningRate *= cfg.sgd.lrDecayPerEpoch;
    ++epochIdx;
    return rec;
}

double
ShardedPsTrainer::testAccuracy()
{
    model.setFlatParams(global);
    const auto &test = bundle.test;
    const std::size_t chunk = 256;
    std::size_t correct = 0;
    for (std::size_t start = 0; start < test.size(); start += chunk) {
        std::vector<std::size_t> idx;
        for (std::size_t i = start;
             i < std::min(test.size(), start + chunk); ++i)
            idx.push_back(i);
        auto [x, y] = test.batch(idx);
        const nn::StepResult r = model.evaluate(x, y);
        correct += static_cast<std::size_t>(
            std::lround(r.accuracy * static_cast<double>(r.samples)));
    }
    return static_cast<double>(correct) /
           static_cast<double>(test.size());
}

} // namespace ps
} // namespace socflow
