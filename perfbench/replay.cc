/**
 * @file
 * Per-layer call replays: each module's public functions timed from
 * outside at the shapes the workload's day uses -- lenet5 on the
 * emnist analog at the group batch, the trainer's cluster model and
 * membership, its checkpoint blob -- at the workload's thread pool
 * size. A replay is the median of many calls after one warm-up
 * call.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <vector>

#include "ckpt/replicated_store.hh"
#include "collectives/engine.hh"
#include "core/comm_plan.hh"
#include "core/mapping.hh"
#include "harvest_bench.hh"
#include "nn/model.hh"
#include "nn/sgd.hh"
#include "nn/zoo.hh"
#include "quant/int8_trainer.hh"
#include "quant/quantize.hh"
#include "tensor/conv.hh"
#include "tensor/ops.hh"
#include "util/hash.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

using namespace socflow;

namespace perfbench {

namespace {

/** Wall time each replay keeps calling for (after warm-up). */
constexpr double kBudgetS = 0.25;
constexpr std::size_t kMaxCalls = 2000;

/** Median seconds per call of `fn`. */
template <class Fn>
double
medianSeconds(Fn &&fn)
{
    using Clock = std::chrono::steady_clock;
    fn();
    std::vector<double> samples;
    const auto start = Clock::now();
    while (samples.size() < 5 ||
           (samples.size() < kMaxCalls &&
            std::chrono::duration<double>(Clock::now() - start).count() <
                kBudgetS)) {
        const auto a = Clock::now();
        fn();
        samples.push_back(
            std::chrono::duration<double>(Clock::now() - a).count());
    }
    std::nth_element(samples.begin(),
                     samples.begin() + samples.size() / 2, samples.end());
    return samples[samples.size() / 2];
}

constexpr double kMs = 1e3;

/** The trainer's current membership as a Mapping. */
core::Mapping
liveMapping(const MeteredTrainer &t)
{
    core::Mapping m;
    for (std::size_t g = 0; g < t.activeGroups(); ++g)
        m.members.push_back(t.groupMembers(g));
    return m;
}

/** One ring round of every group at once: member i -> i+1. */
std::vector<sim::FlowSpec>
ringRound(const sim::Cluster &cluster, const core::Mapping &m,
          double bytes)
{
    std::vector<sim::FlowSpec> flows;
    for (const auto &ring : m.members) {
        if (ring.size() < 2)
            continue;
        const double chunk = bytes / static_cast<double>(ring.size());
        for (std::size_t i = 0; i < ring.size(); ++i)
            flows.push_back(cluster.transfer(
                ring[i], ring[(i + 1) % ring.size()], chunk));
    }
    return flows;
}

void
replayKernels(const Workload &w, const Setup &s, Measurements &out)
{
    const nn::NetSpec &spec = s.bundle->spec;
    // A group step trains on at most one group batch of its shard.
    const std::size_t batch = std::min(
        kGroupBatch,
        std::max<std::size_t>(1, s.bundle->train.size() / w.groups));
    Rng rng(s.cfg.seed);

    // GEMM at the first dense layer: [batch, feat] x [120, feat]^T.
    const std::size_t feat =
        16 * (spec.inHeight / 4) * (spec.inWidth / 4);
    const tensor::Tensor a =
        tensor::Tensor::randn({batch, feat}, rng, 1.0f);
    const tensor::Tensor b =
        tensor::Tensor::randn({120, feat}, rng, 1.0f);
    tensor::Tensor c({batch, 120});
    const double gemmS =
        medianSeconds([&] { tensor::gemm(a, false, b, true, c); });
    out.emplace_back("tensor.gemm_gflops",
                     2.0 * batch * feat * 120 / gemmS / 1e9);

    // Both lenet5 convolutions, forward then backward.
    const tensor::ConvGeom g1{spec.inChannels, 6, 5, 1, 2};
    const tensor::ConvGeom g2{6, 16, 5, 1, 2};
    const std::size_t h = spec.inHeight, wd = spec.inWidth;
    const tensor::Tensor x1 = tensor::Tensor::randn(
        {batch, spec.inChannels, h, wd}, rng, 1.0f);
    const tensor::Tensor w1 =
        tensor::Tensor::randn({6, spec.inChannels, 5, 5}, rng, 0.1f);
    const tensor::Tensor x2 =
        tensor::Tensor::randn({batch, 6, h / 2, wd / 2}, rng, 1.0f);
    const tensor::Tensor w2 =
        tensor::Tensor::randn({16, 6, 5, 5}, rng, 0.1f);
    tensor::Tensor y1({batch, 6, h, wd});
    tensor::Tensor y2({batch, 16, h / 2, wd / 2});
    out.emplace_back("tensor.conv2d_fwd_ms", kMs * medianSeconds([&] {
                         tensor::conv2dForward(x1, w1, g1, y1);
                         tensor::conv2dForward(x2, w2, g2, y2);
                     }));
    tensor::Tensor gx1(x1.shape()), gx2(x2.shape());
    tensor::Tensor gw1 = tensor::Tensor::zeros(w1.shape());
    tensor::Tensor gw2 = tensor::Tensor::zeros(w2.shape());
    out.emplace_back("tensor.conv2d_bwd_ms", kMs * medianSeconds([&] {
                         tensor::conv2dBackward(x1, w1, g1, y1, &gx1,
                                                gw1);
                         tensor::conv2dBackward(x2, w2, g2, y2, &gx2,
                                                gw2);
                     }));

    // One mixed-precision group step at the trainer's CPU share:
    // FP32 step + SGD on the CPU part, INT8 step on the NPU part.
    nn::Model fp32 = nn::buildModel("lenet5", spec, rng);
    nn::Model int8 = fp32;
    nn::Sgd sgd(fp32, s.cfg.sgd);
    quant::Int8Trainer npu(int8, s.cfg.sgd, s.cfg.quant, s.cfg.seed);
    std::vector<std::size_t> idx(batch);
    std::iota(idx.begin(), idx.end(), 0);
    const std::size_t nCpu = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::lround(
            s.trainer->cpuFraction() * static_cast<double>(batch))),
        1, std::max<std::size_t>(1, batch - 1));
    auto [xc, yc] = s.bundle->train.batch(
        std::vector<std::size_t>(idx.begin(), idx.begin() + nCpu));
    auto [xn, yn] = s.bundle->train.batch(
        std::vector<std::size_t>(idx.begin() + nCpu, idx.end()));
    out.emplace_back("nn.train_step_ms", kMs * medianSeconds([&] {
                         fp32.zeroGrad();
                         fp32.trainStep(xc, yc);
                         sgd.step();
                         if (!yn.empty())
                             npu.trainStep(xn, yn);
                     }));

    // Test-set evaluation in the trainer's 256-sample chunks.
    const data::Dataset &test = s.bundle->test;
    std::vector<std::pair<tensor::Tensor, std::vector<int>>> chunks;
    for (std::size_t at = 0; at < test.size(); at += 256) {
        std::vector<std::size_t> ci;
        for (std::size_t i = at; i < std::min(test.size(), at + 256);
             ++i)
            ci.push_back(i);
        chunks.push_back(test.batch(ci));
    }
    out.emplace_back("nn.evaluate_ms", kMs * medianSeconds([&] {
                         for (auto &[x, y] : chunks)
                             fp32.evaluate(x, y);
                     }));

    // Fake quantization and CRC32 over one gradient-sized buffer.
    const std::size_t params = fp32.paramCount();
    const tensor::Tensor grads =
        tensor::Tensor::randn({params}, rng, 1.0f);
    tensor::Tensor q = grads;
    Rng qrng(s.cfg.seed);
    const double fqS = medianSeconds([&] {
        q = grads;
        quant::fakeQuantize(q, s.cfg.quant, &qrng);
    });
    out.emplace_back("quant.fake_quantize_melem_s",
                     static_cast<double>(params) / fqS / 1e6);
    std::uint32_t crc = 0;
    const double crcS = medianSeconds(
        [&] { crc ^= crc32(grads.data(), params * 4); });
    volatile std::uint32_t sink = crc;
    (void)sink;
    out.emplace_back("util.crc32_mb_s",
                     static_cast<double>(params) * 4.0 / crcS / 1e6);
}

void
replayPlanning(const Setup &s, Measurements &out)
{
    const MeteredTrainer &t = *s.trainer;
    const sim::Cluster &cluster = t.clusterModel();
    const std::size_t perBoard = cluster.config().socsPerBoard;
    const double bytes =
        4.0 * static_cast<double>(t.globalWeights().size());
    const core::Mapping live = liveMapping(t);

    const std::vector<sim::FlowSpec> flows =
        ringRound(cluster, live, bytes);
    std::vector<const sim::FlowSpec *> active;
    for (const auto &f : flows)
        active.push_back(&f);
    out.emplace_back("sim.max_min_rates_ms", kMs * medianSeconds([&] {
                         cluster.network().maxMinRates(active);
                     }));
    out.emplace_back("sim.simulate_ms", kMs * medianSeconds([&] {
                         cluster.network().simulate(flows);
                     }));

    const collectives::CollectiveEngine engine(cluster);
    out.emplace_back("collectives.concurrent_rings_ms",
                     kMs * medianSeconds([&] {
                         engine.concurrentRings(live.members, bytes);
                     }));

    std::vector<sim::SocId> socs;
    for (const auto &m : live.members)
        socs.insert(socs.end(), m.begin(), m.end());
    std::sort(socs.begin(), socs.end());
    core::Mapping mapped;
    out.emplace_back("core.map_groups_ms", kMs * medianSeconds([&] {
                         mapped = core::mapGroupsOnto(
                             socs, perBoard, live.numGroups(),
                             core::MapStrategy::IntegrityGreedy);
                     }));
    core::CommPlan plan;
    out.emplace_back("core.plan_comm_ms", kMs * medianSeconds([&] {
                         plan = core::planCommGroups(
                             core::conflictGraph(mapped, perBoard));
                     }));
    out.emplace_back("core.sync_cost_ms", kMs * medianSeconds([&] {
                         core::plannedSyncCost(engine, mapped, plan,
                                               bytes);
                     }));
}

void
replayCheckpoint(Setup &s, Measurements &out)
{
    MeteredTrainer &t = *s.trainer;
    std::vector<std::uint8_t> blob;
    out.emplace_back("core.ckpt_save_ms", kMs * medianSeconds([&] {
                         blob = t.saveCheckpoint();
                     }));
    out.emplace_back("core.ckpt_load_ms", kMs * medianSeconds([&] {
                         t.loadCheckpoint(blob);
                     }));

    ckpt::CkptStoreConfig sc;
    sc.replicas = 2;
    ckpt::ReplicatedCkptStore store(t.clusterModel(), sc);
    std::uint64_t epoch = 0;
    out.emplace_back("ckpt.replica_write_ms", kMs * medianSeconds([&] {
                         store.write(++epoch, blob);
                     }));
    out.emplace_back("ckpt.restore_ms", kMs * medianSeconds([&] {
                         store.restore(0);
                     }));
}

} // namespace

Measurements
replayLayers(const Workload &w, Setup &s)
{
    setGlobalThreads(w.threads);
    Measurements out;
    replayKernels(w, s, out);
    replayPlanning(s, out);
    replayCheckpoint(s, out);
    return out;
}

} // namespace perfbench
