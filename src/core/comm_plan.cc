#include "core/comm_plan.hh"

#include <algorithm>
#include <utility>

#include "util/logging.hh"

namespace socflow {
namespace core {

namespace {

/** Attempt DFS 2-coloring; returns false if an odd cycle appears. */
bool
twoColor(const std::vector<std::vector<std::size_t>> &adj,
         std::vector<std::size_t> &color)
{
    const std::size_t n = adj.size();
    color.assign(n, static_cast<std::size_t>(-1));
    std::vector<std::size_t> stack;
    for (std::size_t start = 0; start < n; ++start) {
        if (color[start] != static_cast<std::size_t>(-1))
            continue;
        color[start] = 0;
        stack.push_back(start);
        while (!stack.empty()) {
            const std::size_t u = stack.back();
            stack.pop_back();
            for (std::size_t v : adj[u]) {
                if (color[v] == static_cast<std::size_t>(-1)) {
                    color[v] = 1 - color[u];
                    stack.push_back(v);
                } else if (color[v] == color[u]) {
                    return false;
                }
            }
        }
    }
    return true;
}

/** First-fit greedy coloring (fallback for adversarial mappings). */
std::size_t
greedyColor(const std::vector<std::vector<std::size_t>> &adj,
            std::vector<std::size_t> &color)
{
    const std::size_t n = adj.size();
    color.assign(n, 0);
    std::size_t used = 1;
    for (std::size_t u = 0; u < n; ++u) {
        std::vector<bool> taken(n, false);
        for (std::size_t v : adj[u])
            if (v < u)
                taken[color[v]] = true;
        std::size_t c = 0;
        while (taken[c])
            ++c;
        color[u] = c;
        used = std::max(used, c + 1);
    }
    return used;
}

} // namespace

CommPlan
planCommGroups(const std::vector<std::vector<std::size_t>> &conflict_adj)
{
    CommPlan plan;
    if (twoColor(conflict_adj, plan.commGroup)) {
        std::size_t mx = 0;
        for (std::size_t c : plan.commGroup)
            mx = std::max(mx, c);
        plan.numCommGroups = conflict_adj.empty() ? 0 : mx + 1;
    } else {
        warn("conflict graph is not bipartite; falling back to greedy "
             "coloring (expected only for non-integrity mappings)");
        plan.numCommGroups = greedyColor(conflict_adj, plan.commGroup);
    }
    return plan;
}

SyncSchedule
planSyncSchedule(const collectives::CollectiveEngine &engine,
                 const Mapping &mapping, const CommPlan &plan,
                 double bytes)
{
    SOCFLOW_ASSERT(plan.commGroup.size() == mapping.numGroups(),
                   "plan does not match mapping");
    const sim::FlowNetwork &net = engine.cluster().network();
    SyncSchedule sched;
    sched.usedWaves = true;
    net.beginCapture(&sched.capture);
    for (std::size_t wave = 0; wave < plan.numCommGroups; ++wave) {
        std::vector<std::vector<sim::SocId>> rings;
        for (std::size_t g = 0; g < mapping.numGroups(); ++g)
            if (plan.commGroup[g] == wave)
                rings.push_back(mapping.members[g]);
        if (rings.empty())
            continue;
        const collectives::CommStats cost =
            engine.concurrentRings(rings, bytes);
        sched.waveSeconds.push_back(cost.seconds);
        sched.total += cost;
    }
    net.endCapture();
    if (sched.waveSeconds.size() < 2)
        return sched;
    // The scheduler keeps whichever schedule is faster: when
    // contention is mild, two sequential waves can lose to the
    // all-at-once schedule purely through per-round overhead, and
    // the planner then degenerates to a single communication group.
    sim::FlowCapture allAtOnceCap;
    net.beginCapture(&allAtOnceCap);
    const collectives::CommStats allAtOnce =
        unplannedSyncCost(engine, mapping, bytes);
    net.endCapture();
    if (allAtOnce.seconds < sched.total.seconds) {
        sched.usedWaves = false;
        sched.waveSeconds.assign(1, allAtOnce.seconds);
        sched.total = allAtOnce;
        sched.capture = std::move(allAtOnceCap);
    }
    return sched;
}

collectives::CommStats
plannedSyncCost(const collectives::CollectiveEngine &engine,
                const Mapping &mapping, const CommPlan &plan,
                double bytes)
{
    return planSyncSchedule(engine, mapping, plan, bytes).total;
}

collectives::CommStats
unplannedSyncCost(const collectives::CollectiveEngine &engine,
                  const Mapping &mapping, double bytes)
{
    return engine.concurrentRings(mapping.members, bytes);
}

} // namespace core
} // namespace socflow
