/**
 * @file
 * Communication-group planning tests: coloring validity, the
 * two-wave guarantee under integrity-greedy mappings, and the
 * planned-vs-unplanned cost property.
 */

#include <gtest/gtest.h>

#include "collectives/engine.hh"
#include "core/comm_plan.hh"
#include "core/mapping.hh"
#include "obs/metrics.hh"
#include "sim/cluster.hh"
#include "util/rng.hh"

using namespace socflow;
using namespace socflow::core;

namespace {

sim::Cluster
cluster(std::size_t socs)
{
    sim::ClusterConfig cfg;
    cfg.numSocs = socs;
    return sim::Cluster(cfg);
}

void
expectValidColoring(const std::vector<std::vector<std::size_t>> &adj,
                    const CommPlan &plan)
{
    ASSERT_EQ(plan.commGroup.size(), adj.size());
    for (std::size_t u = 0; u < adj.size(); ++u)
        for (std::size_t v : adj[u])
            EXPECT_NE(plan.commGroup[u], plan.commGroup[v])
                << "groups " << u << " and " << v;
}

} // namespace

TEST(CommPlan, EmptyGraphOneWaveless)
{
    const CommPlan plan = planCommGroups({});
    EXPECT_EQ(plan.numCommGroups, 0u);
}

TEST(CommPlan, IndependentGroupsShareWaveZero)
{
    const std::vector<std::vector<std::size_t>> adj = {{}, {}, {}};
    const CommPlan plan = planCommGroups(adj);
    EXPECT_EQ(plan.numCommGroups, 1u);
    for (std::size_t c : plan.commGroup)
        EXPECT_EQ(c, 0u);
}

TEST(CommPlan, ChainIsTwoColored)
{
    // 0-1-2-3 chain (what integrity-greedy produces).
    const std::vector<std::vector<std::size_t>> adj = {
        {1}, {0, 2}, {1, 3}, {2}};
    const CommPlan plan = planCommGroups(adj);
    EXPECT_EQ(plan.numCommGroups, 2u);
    expectValidColoring(adj, plan);
}

TEST(CommPlan, OddCycleFallsBackToGreedy)
{
    // Triangle: not bipartite; greedy coloring needs 3 waves.
    const std::vector<std::vector<std::size_t>> adj = {
        {1, 2}, {0, 2}, {0, 1}};
    const CommPlan plan = planCommGroups(adj);
    EXPECT_EQ(plan.numCommGroups, 3u);
    expectValidColoring(adj, plan);
}

TEST(CommPlan, MismatchedPlanPanics)
{
    sim::Cluster c = cluster(20);
    collectives::CollectiveEngine eng(c);
    const Mapping m = mapGroups(20, 5, 4, MapStrategy::IntegrityGreedy);
    CommPlan plan;  // empty
    EXPECT_DEATH(plannedSyncCost(eng, m, plan, 1e6), "match");
}

// ---------------------------------------------------- property sweeps

struct PlanCase {
    std::size_t socs, perBoard, groups;
};

class CommPlanSweep : public ::testing::TestWithParam<PlanCase>
{
};

/** Under integrity-greedy mappings at most two waves are needed. */
TEST_P(CommPlanSweep, AtMostTwoWaves)
{
    const auto p = GetParam();
    const Mapping m = mapGroups(p.socs, p.perBoard, p.groups,
                                MapStrategy::IntegrityGreedy);
    const auto adj = conflictGraph(m, p.perBoard);
    const CommPlan plan = planCommGroups(adj);
    EXPECT_LE(plan.numCommGroups, 2u);
    expectValidColoring(adj, plan);
}

/** Planned sync never costs more than the unplanned all-at-once. */
TEST_P(CommPlanSweep, PlannedNoSlowerThanUnplanned)
{
    const auto p = GetParam();
    sim::Cluster c = cluster(p.socs);
    collectives::CollectiveEngine eng(c);
    const Mapping m = mapGroups(p.socs, p.perBoard, p.groups,
                                MapStrategy::IntegrityGreedy);
    const CommPlan plan =
        planCommGroups(conflictGraph(m, p.perBoard));

    const double planned =
        plannedSyncCost(eng, m, plan, 37e6).seconds;
    const double unplanned = unplannedSyncCost(eng, m, 37e6).seconds;
    // Allow a small tolerance: with <= 1 wave the two are identical.
    EXPECT_LE(planned, unplanned * 1.001);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, CommPlanSweep,
    ::testing::Values(PlanCase{15, 5, 5}, PlanCase{30, 5, 6},
                      PlanCase{32, 5, 8}, PlanCase{60, 5, 12},
                      PlanCase{60, 5, 20}, PlanCase{24, 5, 8},
                      PlanCase{48, 5, 16}, PlanCase{56, 7, 8},
                      PlanCase{60, 5, 10}));

/** The wave-level schedule is consistent with its aggregate cost. */
TEST_P(CommPlanSweep, SyncScheduleWavesMatchTotal)
{
    const auto p = GetParam();
    sim::Cluster c = cluster(p.socs);
    collectives::CollectiveEngine eng(c);
    const Mapping m = mapGroups(p.socs, p.perBoard, p.groups,
                                MapStrategy::IntegrityGreedy);
    const CommPlan plan =
        planCommGroups(conflictGraph(m, p.perBoard));
    const SyncSchedule sched =
        planSyncSchedule(eng, m, plan, 37e6);

    ASSERT_FALSE(sched.waveSeconds.empty());
    EXPECT_LE(sched.waveSeconds.size(), 2u);
    double sum = 0.0;
    for (double w : sched.waveSeconds) {
        EXPECT_GE(w, 0.0);
        sum += w;
    }
    if (sched.usedWaves)
        EXPECT_NEAR(sum, sched.total.seconds,
                    1e-9 * std::max(1.0, sum));
    EXPECT_NEAR(sched.total.seconds,
                plannedSyncCost(eng, m, plan, 37e6).seconds, 1e-12);
    // The attribution covers the kept schedule only: one simulation
    // per round, none from a rejected candidate.
    EXPECT_EQ(sched.capture.simulations, sched.total.rounds);
}

// --------------------------------------------- Theorem 2: chain shape

namespace {

/** Union-find over group indices, for forest detection. */
struct Dsu {
    std::vector<std::size_t> parent;

    explicit Dsu(std::size_t n) : parent(n)
    {
        for (std::size_t i = 0; i < n; ++i)
            parent[i] = i;
    }

    std::size_t
    find(std::size_t x)
    {
        while (parent[x] != x)
            x = parent[x] = parent[parent[x]];
        return x;
    }

    /** Returns false if x and y were already connected (a cycle). */
    bool
    unite(std::size_t x, std::size_t y)
    {
        x = find(x);
        y = find(y);
        if (x == y)
            return false;
        parent[x] = y;
        return true;
    }
};

/**
 * Theorem 2 predicate: the conflict graph is a disjoint union of
 * chains -- every vertex has degree <= 2 and there are no cycles.
 */
void
expectChainShaped(const std::vector<std::vector<std::size_t>> &adj)
{
    Dsu dsu(adj.size());
    for (std::size_t u = 0; u < adj.size(); ++u) {
        EXPECT_LE(adj[u].size(), 2u)
            << "group " << u << " conflicts with more than 2 others";
        for (std::size_t v : adj[u]) {
            ASSERT_NE(u, v) << "self-conflict at group " << u;
            if (u < v)  // count each undirected edge once
                EXPECT_TRUE(dsu.unite(u, v))
                    << "cycle through groups " << u << " and " << v;
        }
    }
}

} // namespace

/** Theorem 2: integrity-greedy conflict graphs are unions of chains. */
TEST_P(CommPlanSweep, ConflictGraphIsChainShaped)
{
    const auto p = GetParam();
    const Mapping m = mapGroups(p.socs, p.perBoard, p.groups,
                                MapStrategy::IntegrityGreedy);
    expectChainShaped(conflictGraph(m, p.perBoard));
}

/**
 * Randomized Theorem 2 sweep: any divisor group count on any board
 * geometry yields a chain-shaped conflict graph, hence the planner
 * never needs more than two communication waves.
 */
TEST(CommPlanTheorem2, RandomizedNeverMoreThanTwoWaves)
{
    Rng rng(0x7e02ULL);
    int checked = 0;
    while (checked < 200) {
        const std::size_t perBoard = 2 + rng.uniformInt(7);   // 2..8
        const std::size_t boards = 1 + rng.uniformInt(12);    // 1..12
        std::size_t socs = perBoard * boards;
        if (boards > 1 && rng.bernoulli(0.3))
            socs -= rng.uniformInt(perBoard - 1) + 1;
        if (socs < 2)
            continue;
        std::vector<std::size_t> divisors;
        for (std::size_t d = 1; d <= socs; ++d)
            if (socs % d == 0)
                divisors.push_back(d);
        const std::size_t groups =
            divisors[rng.uniformInt(divisors.size())];
        SCOPED_TRACE(::testing::Message()
                     << socs << " SoCs, " << perBoard << "/board, "
                     << groups << " groups");

        const Mapping m = mapGroups(socs, perBoard, groups,
                                    MapStrategy::IntegrityGreedy);
        const auto adj = conflictGraph(m, perBoard);
        expectChainShaped(adj);
        const CommPlan plan = planCommGroups(adj);
        EXPECT_LE(plan.numCommGroups, 2u);
        ++checked;
    }
}

/** Contended mappings benefit from planning (strict improvement). */
TEST(CommPlan, PlanningHelpsContendedMapping)
{
    sim::Cluster c = cluster(30);
    collectives::CollectiveEngine eng(c);
    // Sequential mapping with group size 3 on boards of 5 creates
    // NIC-sharing split groups.
    const Mapping m = mapGroups(30, 5, 10, MapStrategy::Sequential);
    const CommPlan plan = planCommGroups(conflictGraph(m, 5));
    if (plan.numCommGroups >= 2) {
        const double planned =
            plannedSyncCost(eng, m, plan, 37e6).seconds;
        const double unplanned =
            unplannedSyncCost(eng, m, 37e6).seconds;
        EXPECT_LT(planned, unplanned);
    }
}

/**
 * A one-wave plan is already the all-at-once schedule: the planner
 * prices it once, one flow simulation per round.
 */
TEST(CommPlan, OneWavePlanIsPricedOnce)
{
    sim::Cluster c = cluster(60);
    collectives::CollectiveEngine eng(c);
    const Mapping m =
        mapGroups(60, 5, 12, MapStrategy::IntegrityGreedy);
    const CommPlan plan = planCommGroups(conflictGraph(m, 5));
    ASSERT_EQ(plan.numCommGroups, 1u);
    obs::Counter &sims =
        obs::metrics().counter("flow_network_simulations_total");
    const double before = sims.value();
    const SyncSchedule sched = planSyncSchedule(eng, m, plan, 37e6);
    EXPECT_GT(sched.total.rounds, 0u);
    EXPECT_EQ(sims.value() - before,
              static_cast<double>(sched.total.rounds));
}
