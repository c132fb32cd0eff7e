/**
 * @file
 * Unit and property tests for the max-min fair flow network.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "obs/metrics.hh"
#include "sim/flow_network.hh"
#include "util/rng.hh"

using namespace socflow;
using namespace socflow::sim;

namespace {

FlowSpec
makeFlow(double bytes, std::vector<ResourceId> path, double start = 0.0,
         double latency = 0.0)
{
    FlowSpec f;
    f.bytes = bytes;
    f.path = std::move(path);
    f.startS = start;
    f.latencyS = latency;
    return f;
}

} // namespace

TEST(FlowNetwork, SingleFlowUsesFullCapacity)
{
    FlowNetwork net;
    const auto r = net.addResource(100.0, "link");
    const auto res = net.simulate({makeFlow(1000.0, {r})});
    EXPECT_NEAR(res[0].finishS, 10.0, 1e-9);
    EXPECT_NEAR(res[0].meanRate, 100.0, 1e-9);
}

TEST(FlowNetwork, TwoFlowsShareFairly)
{
    FlowNetwork net;
    const auto r = net.addResource(100.0, "link");
    const auto res = net.simulate(
        {makeFlow(1000.0, {r}), makeFlow(1000.0, {r})});
    EXPECT_NEAR(res[0].finishS, 20.0, 1e-9);
    EXPECT_NEAR(res[1].finishS, 20.0, 1e-9);
}

TEST(FlowNetwork, ShortFlowFreesBandwidth)
{
    FlowNetwork net;
    const auto r = net.addResource(100.0, "link");
    // Flow 0: 500 B, flow 1: 1500 B. Both run at 50 B/s until flow 0
    // finishes at t=10; flow 1 then gets 100 B/s for its last 1000 B.
    const auto res = net.simulate(
        {makeFlow(500.0, {r}), makeFlow(1500.0, {r})});
    EXPECT_NEAR(res[0].finishS, 10.0, 1e-9);
    EXPECT_NEAR(res[1].finishS, 20.0, 1e-9);
}

TEST(FlowNetwork, MaxMinWithHeterogeneousPaths)
{
    FlowNetwork net;
    const auto a = net.addResource(100.0, "a");
    const auto b = net.addResource(30.0, "b");
    // Flow 0 uses only a; flow 1 crosses both. Flow 1 is capped at 30
    // by b, so flow 0 gets the remaining 70 on a.
    std::vector<FlowSpec> flows = {makeFlow(700.0, {a}),
                                   makeFlow(300.0, {a, b})};
    std::vector<const FlowSpec *> active = {&flows[0], &flows[1]};
    const auto rates = net.maxMinRates(active);
    EXPECT_NEAR(rates[1], 30.0, 1e-9);
    EXPECT_NEAR(rates[0], 70.0, 1e-9);
}

TEST(FlowNetwork, LateArrivalSharesFromItsStart)
{
    FlowNetwork net;
    const auto r = net.addResource(100.0, "link");
    // Flow 0 starts alone (1000 B). Flow 1 arrives at t=5 (500 B).
    // 0..5: f0 drains 500. 5..x: share 50/50.
    const auto res = net.simulate(
        {makeFlow(1000.0, {r}), makeFlow(500.0, {r}, 5.0)});
    EXPECT_NEAR(res[0].finishS, 15.0, 1e-9);
    EXPECT_NEAR(res[1].finishS, 15.0, 1e-9);
}

TEST(FlowNetwork, IdleGapBetweenArrivals)
{
    FlowNetwork net;
    const auto r = net.addResource(100.0, "link");
    const auto res = net.simulate(
        {makeFlow(100.0, {r}), makeFlow(100.0, {r}, 50.0)});
    EXPECT_NEAR(res[0].finishS, 1.0, 1e-9);
    EXPECT_NEAR(res[1].finishS, 51.0, 1e-9);
}

TEST(FlowNetwork, ZeroByteFlowFinishesAtLatency)
{
    FlowNetwork net;
    const auto r = net.addResource(100.0, "link");
    const auto res =
        net.simulate({makeFlow(0.0, {r}, 2.0, 0.5)});
    EXPECT_NEAR(res[0].finishS, 2.5, 1e-9);
}

TEST(FlowNetwork, LatencyAddsAfterDrain)
{
    FlowNetwork net;
    const auto r = net.addResource(100.0, "link");
    const auto res = net.simulate({makeFlow(100.0, {r}, 0.0, 0.25)});
    EXPECT_NEAR(res[0].finishS, 1.25, 1e-9);
}

TEST(FlowNetwork, MakespanIsMaxFinish)
{
    FlowNetwork net;
    const auto r = net.addResource(100.0, "link");
    const double ms = net.makespan(
        {makeFlow(100.0, {r}), makeFlow(400.0, {r})});
    EXPECT_NEAR(ms, 5.0, 1e-9);
}

TEST(FlowNetwork, EmptyFlowSet)
{
    FlowNetwork net;
    net.addResource(10.0, "x");
    EXPECT_EQ(net.makespan({}), 0.0);
    EXPECT_TRUE(net.simulate({}).empty());
}

TEST(FlowNetwork, ResourceAccessors)
{
    FlowNetwork net;
    const auto r = net.addResource(42.0, "mylink");
    EXPECT_EQ(net.numResources(), 1u);
    EXPECT_EQ(net.capacity(r), 42.0);
    EXPECT_EQ(net.name(r), "mylink");
}

// ------------------------------------------------------ flow capture

TEST(FlowCapture, ArmedSinkLeavesResultsBitIdentical)
{
    FlowNetwork net(0.3);
    const auto a = net.addResource(100.0, "a");
    const auto b = net.addResource(40.0, "b");
    const std::vector<FlowSpec> flows = {
        makeFlow(500.0, {a}), makeFlow(300.0, {a, b}, 0.5, 0.01),
        makeFlow(200.0, {b}, 1.0), makeFlow(0.0, {a}, 2.0)};
    const auto plain = net.simulate(flows);
    FlowCapture cap;
    net.beginCapture(&cap);
    const auto armed = net.simulate(flows);
    net.endCapture();
    ASSERT_EQ(plain.size(), armed.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].startS, armed[i].startS) << i;
        EXPECT_EQ(plain[i].finishS, armed[i].finishS) << i;
        EXPECT_EQ(plain[i].meanRate, armed[i].meanRate) << i;
    }
    EXPECT_EQ(cap.simulations, 1u);
}

TEST(FlowCapture, SharedLinkChargesBusyBindingAndBytes)
{
    FlowNetwork net;
    const auto r = net.addResource(100.0, "link");
    FlowCapture cap;
    net.beginCapture(&cap);
    net.simulate({makeFlow(1000.0, {r}), makeFlow(1000.0, {r})});
    net.endCapture();
    ASSERT_EQ(cap.usage.size(), 1u);
    EXPECT_DOUBLE_EQ(cap.usage[r].busySeconds, 20.0);
    EXPECT_DOUBLE_EQ(cap.usage[r].bindingSeconds, 20.0);
    EXPECT_DOUBLE_EQ(cap.usage[r].bytes, 2000.0);
}

TEST(FlowCapture, ArmedRunCountsOneSimulation)
{
    FlowNetwork net;
    const auto r = net.addResource(100.0, "link");
    obs::Counter &sims =
        obs::metrics().counter("flow_network_simulations_total");
    const double before = sims.value();
    FlowCapture cap;
    net.beginCapture(&cap);
    net.simulate({makeFlow(1000.0, {r})});
    net.endCapture();
    EXPECT_EQ(sims.value(), before + 1.0);
}

TEST(FlowNetworkDeath, NonPositiveCapacityPanics)
{
    FlowNetwork net;
    EXPECT_DEATH(net.addResource(0.0, "bad"), "positive");
}

// --------------------------------------------------------- property set

struct FairnessCase {
    std::size_t flows;
    std::size_t links;
    std::uint64_t seed;
};

class FlowNetworkProperty
    : public ::testing::TestWithParam<FairnessCase>
{
};

/**
 * Conservation property: on a single shared link, total service rate
 * never exceeds capacity, and all traffic eventually drains --
 * total bytes / capacity is a lower bound on the makespan.
 */
TEST_P(FlowNetworkProperty, ConservationAndCompletion)
{
    const auto param = GetParam();
    Rng rng(param.seed);
    FlowNetwork net;
    std::vector<ResourceId> links;
    for (std::size_t i = 0; i < param.links; ++i)
        links.push_back(
            net.addResource(rng.uniform(10.0, 200.0), "l"));

    std::vector<FlowSpec> flows;
    double totalBytes = 0.0;
    for (std::size_t i = 0; i < param.flows; ++i) {
        FlowSpec f;
        f.bytes = rng.uniform(10.0, 5000.0);
        totalBytes += f.bytes;
        f.startS = rng.uniform(0.0, 3.0);
        // Random subset of links, at least one.
        for (std::size_t l = 0; l < param.links; ++l)
            if (rng.bernoulli(0.5))
                f.path.push_back(links[l]);
        if (f.path.empty())
            f.path.push_back(links[rng.uniformInt(param.links)]);
        flows.push_back(f);
    }

    const auto res = net.simulate(flows);
    ASSERT_EQ(res.size(), flows.size());

    double maxCap = 0.0;
    for (std::size_t l = 0; l < param.links; ++l)
        maxCap = std::max(maxCap, net.capacity(links[l]));

    for (std::size_t i = 0; i < res.size(); ++i) {
        // Completion: every flow finishes after it starts.
        EXPECT_GE(res[i].finishS, flows[i].startS);
        // No flow exceeds the fastest link it crosses.
        double cap = 1e300;
        for (auto r : flows[i].path)
            cap = std::min(cap, net.capacity(r));
        EXPECT_LE(res[i].meanRate, cap * (1.0 + 1e-6));
    }

    // Aggregate throughput bound: everything must take at least
    // totalBytes / sum-of-capacities seconds of busy time.
    double capSum = 0.0;
    for (std::size_t l = 0; l < param.links; ++l)
        capSum += net.capacity(links[l]);
    double lastFinish = 0.0;
    for (const auto &r : res)
        lastFinish = std::max(lastFinish, r.finishS);
    EXPECT_GE(lastFinish + 1e-9, totalBytes / capSum);
}

INSTANTIATE_TEST_SUITE_P(
    RandomTopologies, FlowNetworkProperty,
    ::testing::Values(FairnessCase{2, 1, 1}, FairnessCase{5, 2, 2},
                      FairnessCase{8, 3, 3}, FairnessCase{16, 4, 4},
                      FairnessCase{32, 5, 5}, FairnessCase{10, 1, 6},
                      FairnessCase{3, 8, 7}, FairnessCase{20, 2, 8}));

/** Fairness: equal flows on one link finish together. */
TEST(FlowNetworkProperty2, SymmetricFlowsFinishTogether)
{
    for (std::size_t n = 2; n <= 16; n *= 2) {
        FlowNetwork net;
        const auto r = net.addResource(100.0, "link");
        std::vector<FlowSpec> flows;
        for (std::size_t i = 0; i < n; ++i)
            flows.push_back(makeFlow(1000.0, {r}));
        const auto res = net.simulate(flows);
        for (const auto &f : res)
            EXPECT_NEAR(f.finishS, 10.0 * static_cast<double>(n), 1e-6);
    }
}
