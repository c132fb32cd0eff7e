/**
 * @file
 * Communication-group planning (§3.1, step 3).
 *
 * Logical groups whose intra-group syncs contend for a board NIC are
 * placed in different communication groups (CGs); CGs then
 * synchronize in sequence so at most one wave of contending rings is
 * on the wire at a time, and the waves are overlapped with compute
 * (Fig. 7). Under integrity-greedy mapping the conflict graph is a
 * union of chains (Theorem 2), so two CGs always suffice -- the
 * planner 2-colors with DFS and falls back to greedy coloring for
 * adversarial mappings used in the ablation.
 */

#ifndef SOCFLOW_CORE_COMM_PLAN_HH
#define SOCFLOW_CORE_COMM_PLAN_HH

#include <cstddef>
#include <vector>

#include "collectives/engine.hh"
#include "core/mapping.hh"

namespace socflow {
namespace core {

/** The CG assignment: commGroup[g] is the wave of logical group g. */
struct CommPlan {
    std::vector<std::size_t> commGroup;
    std::size_t numCommGroups = 0;
};

/**
 * Color the logical-group conflict graph. Tries DFS 2-coloring first
 * (optimal for the bipartite/chain graphs integrity-greedy
 * guarantees); falls back to first-fit greedy coloring when the
 * graph is not bipartite. Groups with no conflicts go into wave 0.
 */
CommPlan planCommGroups(
    const std::vector<std::vector<std::size_t>> &conflict_adj);

/**
 * Resolved synchronization schedule for one intra-group sync step:
 * the sequential communication waves the fabric will actually run,
 * with per-wave wall-clock. Consumed by the tracer to lay waves out
 * on the simulated timeline.
 */
struct SyncSchedule {
    /** Wall-clock of each sequential wave, in execution order. */
    std::vector<double> waveSeconds;
    /** Aggregate cost across all waves. */
    collectives::CommStats total;
    /**
     * False when the planner degenerated to the all-at-once schedule
     * (mild contention where wave sequencing loses to per-round
     * overhead); waveSeconds then holds the single combined wave.
     */
    bool usedWaves = false;
    /**
     * Per-resource attribution of the kept schedule, recorded by the
     * same pricing pass that produced `total` (one simulation per
     * round, so capture.simulations == total.rounds).
     */
    sim::FlowCapture capture;
};

/**
 * Evaluate the planned schedule: waves run in sequence; within a
 * wave, the member rings run concurrently on the fabric. With two or
 * more waves, keeps the all-at-once schedule instead when that is
 * faster (a single wave *is* the all-at-once schedule). Each
 * candidate is priced exactly once.
 * @param bytes gradient payload per ring.
 */
SyncSchedule planSyncSchedule(const collectives::CollectiveEngine &engine,
                              const Mapping &mapping,
                              const CommPlan &plan, double bytes);

/**
 * Cost of one full intra-group synchronization step under a plan
 * (the total of planSyncSchedule).
 */
collectives::CommStats plannedSyncCost(
    const collectives::CollectiveEngine &engine, const Mapping &mapping,
    const CommPlan &plan, double bytes);

/**
 * Cost without planning: every logical group's ring runs at once
 * (the contended baseline the ablation compares against).
 */
collectives::CommStats unplannedSyncCost(
    const collectives::CollectiveEngine &engine, const Mapping &mapping,
    double bytes);

} // namespace core
} // namespace socflow

#endif // SOCFLOW_CORE_COMM_PLAN_HH
