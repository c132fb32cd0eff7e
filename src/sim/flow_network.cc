#include "sim/flow_network.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/metrics.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace socflow {
namespace sim {

FlowNetwork::FlowNetwork(double congestion_exponent)
    : congestionExp(congestion_exponent)
{
    SOCFLOW_ASSERT(congestion_exponent >= 0.0,
                   "congestion exponent must be non-negative");
}

ResourceId
FlowNetwork::addResource(double bytes_per_sec, std::string nm)
{
    SOCFLOW_ASSERT(bytes_per_sec > 0.0,
                   "resource capacity must be positive");
    capacities.push_back(bytes_per_sec);
    names.push_back(std::move(nm));
    return capacities.size() - 1;
}

double
FlowNetwork::capacity(ResourceId id) const
{
    SOCFLOW_ASSERT(id < capacities.size(), "bad resource id");
    return capacities[id];
}

const std::string &
FlowNetwork::name(ResourceId id) const
{
    SOCFLOW_ASSERT(id < names.size(), "bad resource id");
    return names[id];
}

std::vector<double>
FlowNetwork::maxMinRates(const std::vector<const FlowSpec *> &active) const
{
    return maxMinRates(active, nullptr);
}

void
FlowNetwork::beginCapture(FlowCapture *sink) const
{
    SOCFLOW_ASSERT(capture == nullptr || sink == nullptr,
                   "nested flow capture");
    capture = sink;
    if (capture && capture->usage.size() != capacities.size())
        capture->usage.resize(capacities.size());
}

void
FlowNetwork::endCapture() const
{
    capture = nullptr;
}

std::vector<double>
FlowNetwork::maxMinRates(const std::vector<const FlowSpec *> &active,
                         ResourceId *first_bottleneck) const
{
    const std::size_t n = active.size();
    std::vector<double> rates(n, 0.0);
    if (n == 0)
        return rates;

    // Progressive filling: repeatedly saturate the most constrained
    // resource, freezing its flows at the fair share.
    std::vector<double> residual = capacities;
    std::vector<int> usersOnResource(capacities.size(), 0);
    std::vector<bool> frozen(n, false);

    for (std::size_t f = 0; f < n; ++f) {
        for (ResourceId r : active[f]->path) {
            SOCFLOW_ASSERT(r < capacities.size(), "bad resource in path");
            ++usersOnResource[r];
        }
    }

    std::size_t remaining = 0;
    for (std::size_t f = 0; f < n; ++f) {
        if (active[f]->path.empty()) {
            // Flows with no constrained resources drain instantly; use
            // an effectively infinite rate.
            rates[f] = std::numeric_limits<double>::infinity();
            frozen[f] = true;
        } else {
            ++remaining;
        }
    }

    // Parallel thresholds: progressive filling is the inner hot loop
    // at fleet scale, but the fan-out only pays off once the scans
    // are wide; below these sizes the serial path is faster and the
    // parallel one adds nothing but dispatch overhead.
    constexpr std::size_t kParResourceMin = 128;
    constexpr std::size_t kParFlowMin = 256;
    ThreadPool &pool = globalThreadPool();
    bool firstPass = true;

    // Each resource's fair share is a pure function of (residual[r],
    // usersOnResource[r]) -- identical FP ops at any thread count.
    const auto shareOf = [&](ResourceId r) {
        const double users = static_cast<double>(usersOnResource[r]);
        // Fan-in congestion: aggregate goodput degrades as
        // users^-gamma (gamma = 0: ideal fair sharing).
        return residual[r] * std::pow(users, -congestionExp) / users;
    };

    while (remaining > 0) {
        // Find the bottleneck resource: minimal residual / users.
        // The serial scan keeps the first strictly smaller share,
        // i.e. the lexicographic (share, resourceId) minimum -- an
        // associative reduction, so per-chunk minima folded in
        // ascending chunk order reproduce it bit-exactly.
        double best_share = std::numeric_limits<double>::infinity();
        ResourceId best = 0;
        bool found = false;
        if (capacities.size() >= kParResourceMin && pool.size() > 1 &&
            !ThreadPool::inWorkerThread()) {
            const std::size_t chunks = pool.size();
            const std::size_t per =
                (capacities.size() + chunks - 1) / chunks;
            std::vector<double> chunkShare(
                chunks, std::numeric_limits<double>::infinity());
            std::vector<ResourceId> chunkBest(chunks, 0);
            std::vector<char> chunkFound(chunks, 0);
            pool.parallelFor(chunks, [&](std::size_t c) {
                const ResourceId lo = c * per;
                const ResourceId hi = std::min<std::size_t>(
                    capacities.size(), lo + per);
                for (ResourceId r = lo; r < hi; ++r) {
                    if (usersOnResource[r] <= 0)
                        continue;
                    const double share = shareOf(r);
                    if (share < chunkShare[c]) {
                        chunkShare[c] = share;
                        chunkBest[c] = r;
                        chunkFound[c] = 1;
                    }
                }
            });
            for (std::size_t c = 0; c < chunks; ++c) {
                if (chunkFound[c] && chunkShare[c] < best_share) {
                    best_share = chunkShare[c];
                    best = chunkBest[c];
                    found = true;
                }
            }
        } else {
            for (ResourceId r = 0; r < capacities.size(); ++r) {
                if (usersOnResource[r] <= 0)
                    continue;
                const double share = shareOf(r);
                if (share < best_share) {
                    best_share = share;
                    best = r;
                    found = true;
                }
            }
        }
        SOCFLOW_ASSERT(found, "unfrozen flows but no used resource");
        if (firstPass) {
            if (first_bottleneck)
                *first_bottleneck = best;
            firstPass = false;
        }

        // Freeze every unfrozen flow crossing the bottleneck. The
        // candidate set depends only on frozen[] as of entry to this
        // pass, so identification parallelizes; the freeze itself
        // (residual subtraction) is applied serially in ascending
        // flow order to preserve the serial FP accumulation order.
        const auto freezeFlow = [&](std::size_t f) {
            frozen[f] = true;
            rates[f] = best_share;
            --remaining;
            for (ResourceId r : active[f]->path) {
                residual[r] -= best_share;
                if (residual[r] < 0.0)
                    residual[r] = 0.0;
                --usersOnResource[r];
            }
        };
        const auto crossesBottleneck = [&](std::size_t f) {
            const auto &path = active[f]->path;
            return std::find(path.begin(), path.end(), best) !=
                   path.end();
        };
        if (n >= kParFlowMin && pool.size() > 1 &&
            !ThreadPool::inWorkerThread()) {
            std::vector<char> hit(n, 0);
            pool.parallelFor(n, [&](std::size_t f) {
                if (!frozen[f] && crossesBottleneck(f))
                    hit[f] = 1;
            });
            for (std::size_t f = 0; f < n; ++f)
                if (hit[f])
                    freezeFlow(f);
        } else {
            for (std::size_t f = 0; f < n; ++f) {
                if (frozen[f])
                    continue;
                if (!crossesBottleneck(f))
                    continue;
                freezeFlow(f);
            }
        }
    }
    return rates;
}

std::vector<FlowResult>
FlowNetwork::simulate(const std::vector<FlowSpec> &flows,
                      std::size_t repeats) const
{
    const std::size_t n = flows.size();
    std::vector<FlowResult> results(n);
    if (n == 0)
        return results;

    static obs::Counter &simCalls =
        obs::metrics().counter("flow_network_simulations_total");
    static obs::Counter &simFlows =
        obs::metrics().counter("flow_network_flows_total");
    simCalls.add(1.0);
    simFlows.add(static_cast<double>(n));
    if (capture)
        capture->simulations += repeats;
    const double weight = static_cast<double>(repeats);

    std::vector<double> remainingBytes(n);
    std::vector<bool> arrived(n, false), done(n, false);
    for (std::size_t f = 0; f < n; ++f) {
        SOCFLOW_ASSERT(flows[f].bytes >= 0.0, "negative flow size");
        remainingBytes[f] = flows[f].bytes;
        results[f].startS = flows[f].startS;
    }

    // Flows sorted by arrival time for the arrival cursor.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return flows[a].startS < flows[b].startS;
                     });

    double now = flows[order.front()].startS;
    std::size_t arrivalCursor = 0;
    std::size_t doneCount = 0;

    while (doneCount < n) {
        // Admit arrivals at or before `now`.
        while (arrivalCursor < n &&
               flows[order[arrivalCursor]].startS <= now + 1e-15) {
            const std::size_t f = order[arrivalCursor++];
            arrived[f] = true;
            if (remainingBytes[f] <= 0.0) {
                done[f] = true;
                ++doneCount;
                results[f].finishS = now + flows[f].latencyS;
                results[f].meanRate = 0.0;
            }
        }
        if (doneCount >= n)
            break;

        // Collect the active set.
        std::vector<const FlowSpec *> active;
        std::vector<std::size_t> activeIdx;
        for (std::size_t f = 0; f < n; ++f) {
            if (arrived[f] && !done[f]) {
                active.push_back(&flows[f]);
                activeIdx.push_back(f);
            }
        }

        const double nextArrival =
            arrivalCursor < n ? flows[order[arrivalCursor]].startS
                              : std::numeric_limits<double>::infinity();

        if (active.empty()) {
            SOCFLOW_ASSERT(arrivalCursor < n,
                           "idle network with pending flows unfinished");
            now = nextArrival;
            continue;
        }

        ResourceId binding = 0;
        const std::vector<double> rates =
            maxMinRates(active, capture ? &binding : nullptr);

        // Time until the first active flow drains.
        double dt = std::numeric_limits<double>::infinity();
        for (std::size_t k = 0; k < active.size(); ++k) {
            if (rates[k] <= 0.0)
                continue;
            dt = std::min(dt, remainingBytes[activeIdx[k]] / rates[k]);
        }
        SOCFLOW_ASSERT(dt < std::numeric_limits<double>::infinity(),
                       "active flows but zero aggregate rate");
        dt = std::min(dt, nextArrival - now);

        // Attribution: charge the interval (once per repeat) to every
        // resource a finite-rate flow crossed, and its full span to the
        // binding constraint the first filling pass identified.
        if (capture && dt > 0.0) {
            const double charged = dt * weight;
            std::vector<ResourceUsage> &use = capture->usage;
            std::vector<char> touched(use.size(), 0);
            for (std::size_t k = 0; k < active.size(); ++k) {
                if (!std::isfinite(rates[k]))
                    continue;
                for (ResourceId r : active[k]->path) {
                    use[r].bytes += rates[k] * charged;
                    touched[r] = 1;
                }
            }
            for (ResourceId r = 0; r < use.size(); ++r)
                if (touched[r])
                    use[r].busySeconds += charged;
            use[binding].bindingSeconds += charged;
        }

        // Drain bytes over the interval.
        for (std::size_t k = 0; k < active.size(); ++k) {
            const std::size_t f = activeIdx[k];
            if (!std::isfinite(rates[k])) {
                remainingBytes[f] = 0.0;
                continue;
            }
            remainingBytes[f] -= rates[k] * dt;
        }
        now += dt;

        // Retire drained flows.
        for (std::size_t k = 0; k < active.size(); ++k) {
            const std::size_t f = activeIdx[k];
            if (remainingBytes[f] <= 1e-9) {
                done[f] = true;
                ++doneCount;
                results[f].finishS = now + flows[f].latencyS;
                const double span = now - flows[f].startS;
                results[f].meanRate =
                    span > 0.0 ? flows[f].bytes / span : 0.0;
            }
        }
    }
    return results;
}

double
FlowNetwork::makespan(const std::vector<FlowSpec> &flows,
                      std::size_t repeats) const
{
    double finish = 0.0;
    for (const auto &r : simulate(flows, repeats))
        finish = std::max(finish, r.finishS);
    if (!flows.empty()) {
        static obs::Histogram &span =
            obs::metrics().histogram("flow_network_makespan_seconds");
        span.observe(finish);
    }
    return finish;
}

} // namespace sim
} // namespace socflow
