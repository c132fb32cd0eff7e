/**
 * @file
 * The SoCFlow distributed training engine.
 *
 * Combines every technique from the paper:
 *  - group-wise parallelism: N logical groups, SSGD (per-batch ring
 *    all-reduce) inside a group, delayed per-epoch weight averaging
 *    across groups via leader SoCs, with cross-group data shuffling;
 *  - integrity-greedy logical-to-physical mapping;
 *  - communication-group planning with compute/communication overlap;
 *  - data-parallel mixed-precision training (CPU FP32 + NPU INT8 per
 *    SoC, alpha/beta-controlled batch split, Eq. 5 weight merge);
 *  - underclocking-aware workload rebalancing;
 *  - checkpointing with group-granular preemption;
 *  - crash resilience: abrupt SoC loss (fault/fault.hh) re-maps the
 *    survivor set integrity-greedily, restores the crashed group from
 *    the leaders' consensus weights (momentum is lost), and re-runs
 *    CG planning;
 *  - step-granular faults: the trainer drives the injector's
 *    {epoch, step, phase} clock through every compute/wave boundary.
 *    A SoC dying *mid-wave* resumes the in-flight AllReduce from the
 *    last acked chunk on the survivor ring (group state, momentum
 *    included, is preserved); corrupted gradient chunks are caught by
 *    CRC32 tags and retransmitted under the SyncPolicy budget, with
 *    exhaustion surfacing as a typed SyncError (the poisoned update
 *    is dropped, never silently applied); a crashed *leader* triggers
 *    deterministic re-election (highest surviving SoC id in the
 *    group) and re-forms the leader ring mid-epoch. Every fired
 *    fault and recovery is folded into a deterministic timeline hash
 *    for replay checking (same seed => same hash);
 *  - partition-tolerant membership (membership/membership.hh): a
 *    phi-accrual failure detector fed by per-step heartbeats on the
 *    simulated clock, board/switch partitions resolved by the quorum
 *    rule (majority side re-maps and trains on, minority groups pause
 *    with state preserved; no quorum = the whole epoch pauses), a
 *    monotonic group generation carried in every collective with
 *    stale-generation fencing (a healed minority can never commit
 *    weights -- no split-brain double-aggregation), and a rejoin
 *    protocol that restores returning SoCs from the leaders'
 *    consensus weights, re-runs mapGroupsOnto + CG planning on the
 *    live membership, and asserts the Theorem 1/2 invariants still
 *    hold.
 *
 * The *math* (SGD, quantization, averaging) is executed for real on
 * scaled models; wall-clock and energy are those the calibrated
 * SoC-Cluster simulator attributes to the full-size workload.
 *
 * Within a logical group, synchronized SGD on identical replicas is
 * mathematically equivalent to one replica consuming the group batch,
 * so each group holds one FP32 replica plus one INT8 replica (the
 * per-SoC CPU/NPU pair); the simulator still charges compute and
 * network time for all member SoCs individually.
 */

#ifndef SOCFLOW_CORE_SOCFLOW_TRAINER_HH
#define SOCFLOW_CORE_SOCFLOW_TRAINER_HH

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "collectives/engine.hh"
#include "fault/fault.hh"
#include "membership/membership.hh"
#include "core/comm_plan.hh"
#include "core/mapping.hh"
#include "core/mixed_precision.hh"
#include "core/train_common.hh"
#include "data/dataset.hh"
#include "nn/sgd.hh"
#include "nn/zoo.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "quant/int8_trainer.hh"
#include "sim/calibration.hh"
#include "sim/cluster.hh"
#include "sim/dvfs.hh"
#include "sim/energy.hh"
#include "util/hash.hh"

namespace socflow {
namespace core {

/** All knobs of the SoCFlow engine (defaults = the full system). */
struct SoCFlowConfig {
    std::string modelFamily = "vgg11";
    std::size_t numSocs = 32;
    std::size_t numGroups = 8;
    std::size_t groupBatch = 32;  //!< BS_g
    nn::SgdConfig sgd;
    quant::QuantConfig quant;

    // Ablation toggles (Fig. 13 / Fig. 14).
    MapStrategy mapping = MapStrategy::IntegrityGreedy;
    bool usePlanning = true;       //!< CG planning (vs all-at-once)
    bool useMixedPrecision = true; //!< CPU+NPU (vs CPU only)
    bool npuOnly = false;          //!< INT8 only (Ours-INT8)
    /** >= 0 fixes the CPU batch share (Ours-Half uses 0.5). */
    double fixedCpuFraction = -1.0;
    bool overlapCommCompute = true;

    // Operational features.
    bool dvfsEnabled = false;
    bool rebalanceUnderclock = true;
    sim::DvfsConfig dvfs;

    std::size_t validationSamples = 128;  //!< for alpha profiling
    std::uint64_t seed = 42;
    sim::ClusterConfig clusterTemplate;   //!< numSocs is overridden

    /** Timeout/retry/backoff envelope for fault-aware syncs; handed
     *  to the collective engine at construction. */
    collectives::SyncPolicy sync;

    /** Phi-accrual suspicion threshold for failure detection (8 =
     *  a 10^-8 false-positive probability; see membership.hh). */
    double phiThreshold = 8.0;
    /** Heartbeat inter-arrival window of the failure detector. */
    std::size_t phiWindow = 32;
};

/**
 * SoCFlow engine; one instance trains one model on one dataset.
 */
class SoCFlowTrainer : public DistTrainer
{
  public:
    /**
     * @param config engine configuration.
     * @param bundle dataset (train/test) to learn.
     * @param initial optional pre-trained weights (transfer
     *        learning); must match the built model's flat size.
     */
    SoCFlowTrainer(SoCFlowConfig config, const data::DataBundle &bundle,
                   const std::vector<float> *initial = nullptr);

    EpochRecord runEpoch() override;
    double testAccuracy() override;
    std::string methodName() const override { return "Ours"; }

    /** Current mixed-precision state (for the Fig. 14 ablation). */
    double alpha() const { return mpc.alpha(); }
    double beta() const { return mpc.beta(); }
    double cpuFraction() const;

    /** Conflict metric C of the active mapping. */
    std::size_t mappingConflictC() const;

    /** Number of communication groups the planner chose. */
    std::size_t numCommGroups() const { return plan.numCommGroups; }

    /** Number of currently active logical groups. */
    std::size_t activeGroups() const { return groups.size(); }

    /**
     * Preempt one logical group (its SoCs return to user workloads).
     * The group's shard is redistributed next epoch; training
     * continues on the remaining groups. Preempting the last group
     * is a user error.
     */
    void preemptGroup(std::size_t group_index);

    /**
     * Resize the active group set to `n` (1 <= n <= the configured
     * group count). Shrinking preempts trailing groups; growing
     * re-admits groups seeded from the current consensus weights
     * (the checkpoint/resume path of the harvesting scheduler).
     * Optimizer momentum is reset for re-admitted groups. Re-admitted
     * member lists keep only SoCs that pass the eligibility rule and
     * host no active group (a crashed SoC, or one cut off by a
     * partition, stays out); growth stops early when a candidate
     * group has no usable SoC left.
     */
    void setActiveGroups(std::size_t n);

    /**
     * Attach a fault injector (not owned; nullptr detaches). Each
     * runEpoch() then advances the injector to the current epoch and
     * reacts: crashes trigger injectCrash(), straggler windows slow
     * the affected SoCs' compute, and degraded NICs inflate sync
     * costs via the collective engine.
     */
    void attachFaultInjector(fault::FaultInjector *injector);

    /**
     * Abrupt loss of one SoC (no checkpoint, mid-AllReduce). The
     * in-flight sync burns the engine's timeout/retry envelope and
     * degrades to the survivor ring; the dead SoC's group is rebuilt
     * from the leaders' consensus weights (momentum is NOT
     * preserved); surviving groups keep their full state; the
     * survivor set is re-mapped integrity-greedily and CG planning
     * re-runs. Groups that can no longer be populated are dropped.
     * Crashing the last live SoC is fatal.
     * @return simulated seconds the recovery cost (timeouts +
     *         backoff + degraded re-sync).
     */
    double injectCrash(sim::SocId soc);

    /**
     * Abrupt loss of one SoC *mid-wave*: `progress` of the in-flight
     * AllReduce's 2(N-1) rounds had already been acked (chunks CRC-
     * verified on arrival), so only the remaining rounds re-run on
     * the survivor ring (collectives::resumeFromChunk). Unlike
     * injectCrash, the group's replica state -- weights AND momentum
     * -- survives as long as one member remains; the dead SoC is
     * simply dropped from the member list and CG planning re-runs.
     * @return simulated seconds of the recovery (detection timeout +
     *         one backoff + the resumed tail rounds).
     */
    double injectMidWaveCrash(sim::SocId soc, double progress = 0.5,
                              std::size_t step = 0,
                              std::size_t wave = 0);

    /**
     * Abrupt loss of a SoC during the cross-group leader ring. When
     * the victim led its group, a new leader is elected
     * deterministically (highest surviving SoC id in the group) and
     * the leader ring re-forms mid-epoch; group replica state
     * survives with any surviving member. Only when the whole group
     * dies with its leader does the trainer fall back to the last
     * consensus weights: the group is dropped and its in-flight
     * delayed-aggregation contribution is lost.
     * @return simulated seconds of the recovery.
     */
    double injectLeaderCrash(sim::SocId soc);

    /** Leader (first member) of active group `g`. */
    sim::SocId groupLeader(std::size_t g) const;

    /** Members of active group `g` (leader first). */
    std::vector<sim::SocId> groupMembers(std::size_t g) const;

    /**
     * Current group generation (membership/membership.hh), stamped on
     * every cross-group aggregation; stale-stamped contributions are
     * fenced, never applied. Bumped by the transitions that can leave
     * traffic in flight from a membership the survivors no longer
     * share -- elastic resize, partition handled, heal (also when
     * quorum returns), rejoin, and power-loss restore. Crashes and
     * preemptGroup() do not bump it (DESIGN.md ch. 8).
     */
    std::uint64_t generation() const { return gate.current(); }

    /** Stale-generation messages fenced so far (split-brain guard):
     *  gate rejections at the aggregation boundary plus engine-level
     *  fenced ring admissions during heal/rejoin. */
    std::size_t fencedStaleTotal() const { return fencedTotal; }

    /**
     * True while no partition side holds quorum: every group is
     * paused in place (state preserved, nothing trains) until heal.
     */
    bool quorumPaused() const { return quorumLost; }

    /** Groups paused on the minority side of an active partition. */
    std::size_t pausedGroupCount() const { return pausedGroups.size(); }

    /** FP32 weights of paused group `i` (state-preservation tests). */
    std::vector<float> pausedGroupWeights(std::size_t i) const;

    /** The phi-accrual failure detector fed by per-step heartbeats. */
    const membership::PhiAccrualDetector &failureDetector() const
    {
        return detector;
    }

    /** Highest suspicion level any live SoC ever reached (a healthy
     *  or merely-straggling run stays below the phi threshold). */
    double peakSuspicion() const { return peakPhi; }

    /**
     * FNV-1a digest of every fired fault and recovery action so far
     * (kind, epoch/step/phase, victim, survivors, recovery cost).
     * Two trainers built from the same seeds produce identical
     * hashes; replay divergence is a bug (run_all.sh --chaos).
     */
    std::uint64_t timelineHash() const { return timeline.value(); }

    /** SoCs lost to crashes so far (injector- or caller-driven). */
    const std::set<sim::SocId> &crashedSocs() const
    {
        return deadSocs;
    }

    /** Serialize weights + training state to a byte buffer. */
    std::vector<std::uint8_t> saveCheckpoint() const;

    /**
     * Restore from a buffer produced by saveCheckpoint(). Throws
     * CheckpointError on truncated, oversized, wrong-magic,
     * bit-flipped (checksum) or wrong-model-size buffers; the
     * trainer state is untouched on failure.
     */
    void loadCheckpoint(const std::vector<std::uint8_t> &bytes);

    /**
     * True after a RackPowerLoss took the whole fleet down: no
     * further epoch makes progress (runEpoch returns immediately with
     * powerLost set) until restoreAfterPowerLoss() -- or a fresh
     * trainer + loadCheckpoint() -- brings the fleet back.
     */
    bool powerLost() const { return fleetDown; }

    /**
     * Whole-fleet crash-restart: rebuild every group from scratch
     * (power-cycled machines boot with empty volatile state -- dead
     * sets, pauses, isolation, and momentum are all gone), then
     * restore weights/epoch/alpha from a durable checkpoint via
     * loadCheckpoint() and bump the membership generation so any
     * stale pre-outage traffic is fenced. Returns the epochs of lost
     * work (epochs trained after the checkpoint was taken -- the
     * caller's RPO accounting). Throws CheckpointError -- with the
     * fleet still down -- when the bytes fail validation.
     */
    std::size_t restoreAfterPowerLoss(
        const std::vector<std::uint8_t> &bytes);

    /** The simulated cluster (checkpoint replica placement/pricing). */
    const sim::Cluster &clusterModel() const { return cluster; }

    /** Consensus (post-sync) weights of the global model. */
    std::vector<float> globalWeights() const;

    /** FP32 replica weights of active group `g` (for tests). */
    std::vector<float> groupWeights(std::size_t g) const;

    /** L2 norm of group `g`'s FP32 optimizer momentum (for tests). */
    double groupMomentumNorm(std::size_t g) const;

    /** Epochs completed so far. */
    std::size_t epochsDone() const { return epochCounter; }

  private:
    /** Per-logical-group replica state. */
    struct GroupState {
        std::vector<sim::SocId> socs;
        nn::Model fp32;
        std::unique_ptr<nn::Sgd> sgd;
        nn::Model int8;
        std::unique_ptr<quant::Int8Trainer> int8Trainer;
        /** Membership generation this group last synced under. */
        std::uint64_t generation = 0;

        GroupState(std::vector<sim::SocId> socs, const nn::Model &proto,
                   const nn::SgdConfig &scfg,
                   const quant::QuantConfig &qcfg, std::uint64_t seed);

        /** Consensus restore: both replicas take `w`, momentum is
         *  lost (it does not survive a rebuild from consensus). */
        void restore(const std::vector<float> &w);
    };

    /** Per-step compute seconds for one group (slowest member SoC). */
    double groupComputeSeconds(const GroupState &g,
                               double cpu_fraction) const;

    /** Intra-group sync seconds for one step across all groups. */
    double stepSyncSeconds() const;

    /** Cross-group (per-epoch) aggregation seconds. */
    double epochSyncSeconds() const;

    /** Leader-ring aggregation seconds over the given leaders: a flat
     *  ring on a single rack (the pre-fleet path, bit for bit), the
     *  three-tier hierarchy -- per-rack leader rings into a cluster
     *  ring over rack representatives -- on a multi-rack fleet. */
    double leaderAggregateSeconds(std::vector<sim::SocId> leaders) const;

    /** Profile alpha on the validation slice. */
    void profileAlpha();

    /** Drop the memoized sync costs: call whenever the topology, the
     *  CG plan, or the fault model's link/liveness state changes. */
    void invalidateSyncCosts() { syncCosts = SyncCosts{}; }

    /** Install the model's (layer name, parameter count) table into
     *  the profiler once per trainer (latest registrant wins). */
    void registerProfilerLayers();

    /**
     * The one membership commit (DESIGN.md ch. 8), run after every
     * member-list edit: member lists -> mapping, conflict graph -> CG
     * plan, drop memoized sync costs, reset the per-group obs state,
     * then assertMembershipInvariants().
     */
    void rebuildTopology();

    /** The membership fence: bump the generation and stamp every
     *  active group current. */
    void bumpGeneration();

    /**
     * The eligibility rule: `soc` may hold a place in the active
     * mapping. It must not be crashed, isolated or parked; outside
     * the mapping it must also be alive in the fault model and sit on
     * a reachable board. A current member stays eligible until the
     * transition that handles its own fault removes it: one injector
     * advance can fire several specs, and the fault model already
     * reflects them all while they are dispatched one at a time.
     */
    bool eligible(sim::SocId soc) const;

    /** Eligible members of the active groups, ascending. */
    std::vector<sim::SocId> liveMembers() const;

    /** Integrity-greedy re-map of `live` onto the active groups:
     *  trailing groups `live` cannot populate are dropped, the rest
     *  take the new member lists in group order. */
    void remapOnto(const std::vector<sim::SocId> &live);

    /** Boot every group as the constructor-deterministic seeds build
     *  it on the configured mapping (`initial`, when given, replaces
     *  the built weights), with no volatile membership state, and
     *  commit. The constructor and restoreAfterPowerLoss share it. */
    void bootGroups(const std::vector<float> *initial);

    /** Recovery events accumulated into the current EpochRecord. */
    struct RecoveryTally {
        std::size_t crashes = 0;
        std::size_t waveResumes = 0;
        std::size_t leaderElections = 0;
        std::size_t gradCorruptDetected = 0;
        std::size_t chunksRetransmitted = 0;
        std::size_t syncFailures = 0;
        std::size_t partitions = 0;
        std::size_t rejoins = 0;
        double recoverySeconds = 0.0;
    };

    /** A group parked on the minority side of a partition. */
    struct PausedGroup {
        std::unique_ptr<GroupState> state;
        /** Generation the group last synced under (stale once the
         *  majority bumps; its replayed traffic gets fenced). */
        std::uint64_t staleGeneration = 0;
        /** Sim-clock instant the partition cut it off. */
        double pausedAtS = 0.0;
    };

    /** React to a BoardPartition/SwitchPartition spec: split the live
     *  membership by board reachability, apply the quorum rule, park
     *  minority groups, and re-map + re-plan the majority. */
    void handlePartition(const fault::FaultSpec &spec);

    /** React to a RackPowerLoss spec: mark the fleet down (volatile
     *  state is gone), mix the outage into the timeline, and dump a
     *  post-mortem. The epoch in flight aborts without closing. */
    void handleRackPowerLoss(const fault::FaultSpec &spec);

    /** Epoch-open heal sweep: resume paused groups whose boards are
     *  reachable again, fold isolated/rejoining SoCs back in, fence
     *  their stale replayed traffic, and re-map the live set. */
    void healMemberships();

    /** Rejoin one recovered SoC (SocRejoin or healed isolation):
     *  weight catch-up broadcast from its leader, then membership. */
    void rejoinSoc(sim::SocId soc);

    /** Mark-crashed prologue: `soc` joins the dead set, its down time
     *  starts, the failure detector forgets it. Returns its owning
     *  group (groups.size() when idle); an owned crash is counted and
     *  marked as `event` on the control track. */
    std::size_t markCrashed(sim::SocId soc, const char *event);

    /** Recovery charge: `seconds` go to the tally, the
     *  fault_recovery_seconds_digest, a `span` on the control track
     *  and the simulated clock. */
    void chargeRecovery(const char *span, double seconds,
                        std::initializer_list<obs::SpanArg> args);

    /** Catch-up admit: `soc` fetches the current weights + generation
     *  from the first leader and joins the first group. Returns the
     *  broadcast seconds; `downS` receives its rejoin latency. */
    double admitCaughtUp(sim::SocId soc, double &downS);

    /** Rejoin latency of `soc` -- the time since it lost contact,
     *  consuming its isolatedSinceS entry, else `fallbackS` -- which
     *  is also recorded in rejoin_seconds_digest. */
    double rejoinLatency(sim::SocId soc, double fallbackS);

    /** Copy the recovery tally and the unreported fenced messages into
     *  `rec`, add the recovery seconds to its simulated time, then
     *  reset the tally (every runEpoch exit). */
    void closeTally(EpochRecord &rec);

    /** Theorem 1/2 invariants on the live mapping (panics on
     *  violation): every live member in exactly one group; with
     *  planning on, the conflict graph stays a union of chains
     *  (degree <= 2) and the CG schedule needs <= 2 waves. */
    void assertMembershipInvariants() const;

    /** Per-step heartbeat sweep: each live member's arrival lands at
     *  its own compute-rate-scaled offset; peak phi is sampled just
     *  before each arrival (the most suspicious instant). */
    void heartbeatSweep(double step_start_s, double step_compute_s);

    /** Dispatch specs fired by an injector advance to the matching
     *  recovery path (`step` labels trace spans / the timeline). */
    void dispatchFired(const std::vector<fault::FaultSpec> &fired,
                       std::size_t step);

    /** Wave-phase GradCorrupt: charge a CRC-checked ring sync on the
     *  afflicted group; on retry exhaustion drop the poisoned update
     *  (consensus restore) instead of applying it. */
    void chargeCorruptedWave(const fault::FaultSpec &spec,
                             std::size_t step);

    /** Index of the active group containing `soc` (groups.size()
     *  when the SoC is idle/unmapped). */
    std::size_t owningGroup(sim::SocId soc) const;

    SoCFlowConfig cfg;
    const data::DataBundle &bundle;
    const sim::ModelProfile &profile;
    sim::Cluster cluster;
    collectives::CollectiveEngine engine;
    sim::ComputeModel compute;
    sim::EnergyMeter meter;
    sim::UnderclockModel dvfs;

    Mapping fullMapping;  //!< as configured, before any preemption
    Mapping mapping;      //!< currently active groups
    CommPlan plan;
    MixedPrecisionController mpc;

    /**
     * Owned by pointer: GroupState's optimizer holds a reference to
     * its sibling model, so the object must never be moved.
     */
    std::vector<std::unique_ptr<GroupState>> groups;
    Rng rng;
    std::size_t epochCounter = 0;

    /** Optional fault source (not owned). */
    fault::FaultInjector *faults = nullptr;
    /** SoCs lost to crashes; re-admitted only via a SocRejoin. */
    std::set<sim::SocId> deadSocs;
    /** Phi-accrual failure detector on the simulated clock. */
    membership::PhiAccrualDetector detector;
    /** Group generation + stale-message fencing. */
    membership::GenerationGate gate;
    /** Groups parked by the quorum rule, preserved for rejoin. */
    std::vector<PausedGroup> pausedGroups;
    /** SoCs stripped from mixed groups by a partition; they rejoin
     *  (weight catch-up) when their board heals. */
    std::set<sim::SocId> isolatedSocs;
    /** When each isolated/paused SoC lost contact (rejoin latency). */
    std::map<sim::SocId, double> isolatedSinceS;
    /** True while no partition side holds quorum. */
    bool quorumLost = false;
    /** True after a RackPowerLoss killed the fleet; cleared only by
     *  restoreAfterPowerLoss(). */
    bool fleetDown = false;
    /** Highest phi any live SoC reached (false-positive guard). */
    double peakPhi = 0.0;
    /** Stale messages fenced so far (gate + engine admissions). */
    std::size_t fencedTotal = 0;
    /** fencedTotal already folded into earlier epoch records. */
    std::size_t fencedReported = 0;
    /** Cached per-group collective-latency sketches (leader fan-in);
     *  refreshed when the group count changes. */
    std::vector<obs::TDigest *> groupDigests;
    /** Recovery events since the last epoch record was cut. */
    RecoveryTally tally;
    /** Deterministic digest of the fault/recovery timeline. */
    Fnv1a64 timeline;

    /**
     * Memoized sync pricing (topology-dependent only). Each query's
     * per-resource attribution (obs/profiler.hh) is recorded by the
     * same pricing pass as its seconds, so the two never disagree.
     */
    struct SyncCosts {
        /** Intra-group sync seconds per step; negative until priced. */
        double stepS = -1.0;
        /** Per-wave breakdown of stepS (trace layout). */
        std::vector<double> waveS;
        /** Attribution of one step's sync waves. */
        sim::FlowCapture stepCap;
        /** Epoch aggregation seconds; negative until priced. */
        double epochS = -1.0;
        /** Attribution of the epoch aggregation's leader collectives. */
        sim::FlowCapture epochCap;
    };
    /** Mutable: it memoizes const cost queries. */
    mutable SyncCosts syncCosts;
    /** Layer table pushed to the profiler (once per trainer). */
    bool profLayersRegistered = false;
    /** Current epoch's accumulated per-resource usage (paper scale). */
    std::vector<sim::ResourceUsage> profEpochUse;

    /** Simulated-timeline cursor for trace spans (paper-scale s). */
    double simClockS = 0.0;
    /** Chrome track-name metadata emitted (redone on topo changes). */
    bool obsTracksNamed = false;
};

} // namespace core
} // namespace socflow

#endif // SOCFLOW_CORE_SOCFLOW_TRAINER_HH
