/**
 * @file
 * Head-to-head: monolithic parameter server (SSP, one server SoC) vs
 * the sharded parameter server (ps/sharded_ps.hh) vs SoCFlow's
 * group-wise training, across single-rack and 4-rack topologies and
 * under seeded fault mixes.
 *
 * Fault mixes:
 *   clean    no injector; pure throughput/accuracy comparison
 *   faulted  seeded PS-server crashes + a board partition + rejoin
 *            (the sharded PS fails over; the monolithic PS pauses)
 *   incast   staleness pinned to 0 (synchronous push/pull every
 *            step), the regime where one server SoC collapses under
 *            fan-in congestion (§2.3) and sharding pays off most
 *
 * Every row is emitted as a labeled `BENCH {json}` line on stdout
 * (label = method/topology/mix) and, with --bench-json, collected
 * into a machine-readable BenchReport. Two extra flow-model-only rows
 * reproduce the paper's VGG-11 incast anchor: the monolithic 32-SoC
 * exchange near 20.6 s vs the same bytes split across 8 shard
 * endpoints.
 *
 * Flags (besides the shared observability set):
 *   --ps-shards=<n>   shard count for the sharded-PS rows (default 8)
 *   --staleness=<n>   staleness bound for clean/faulted rows
 *                     (default 4; the incast mix always pins 0)
 *   --smoke           tiny scenario + 1-epoch budgets for ctest
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "baselines/ssp.hh"
#include "core/socflow_trainer.hh"
#include "data/synthetic.hh"
#include "fault/fault.hh"
#include "ps/sharded_ps.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace socflow;

namespace {

/** One cluster shape the comparison runs on. */
struct Topology {
    const char *label;
    std::size_t numSocs;
    std::size_t numGroups;  //!< group-wise rows
    /** racks > 1 builds the fleet cluster (rack uplinks + core). */
    std::size_t racks = 1;
    std::size_t boardsPerRack = 12;
    std::size_t socsPerBoard = 5;

    sim::ClusterConfig
    cluster() const
    {
        if (racks <= 1) {
            sim::ClusterConfig c;
            c.numSocs = numSocs;
            return c;
        }
        sim::FleetTopology topo{racks, boardsPerRack, socsPerBoard};
        sim::ClusterConfig c = sim::fleetClusterConfig(topo);
        c.numSocs = numSocs;
        return c;
    }
};

/** One seeded fault mix shared by all three methods. */
struct FaultMix {
    const char *label;
    bool faulted;
    /** Staleness bound; incast pins 0 = synchronous PS. */
    std::size_t staleness;
};

std::vector<Topology>
topologies()
{
    if (bench::smokeMode())
        return {{"1rack", 16, 4},
                {"4rack", 16, 4, 4, 1, 4}};
    return {{"1rack", 32, 8},
            {"4rack", 32, 8, 4, 2, 4}};
}

std::vector<FaultMix>
faultMixes()
{
    const std::size_t bound = bench::benchStaleness();
    if (bench::smokeMode())
        return {{"clean", false, bound}, {"incast", true, 0}};
    return {{"clean", false, bound},
            {"faulted", true, bound},
            {"incast", true, 0}};
}

std::size_t
epochBudget()
{
    return bench::smokeMode() ? 1 : bench::scaledEpochs(6);
}

fault::FaultPlan
planFor(const Topology &topo, std::size_t epochs)
{
    fault::FaultPlanConfig pc;
    pc.numSocs = topo.numSocs;
    pc.socsPerBoard = topo.cluster().socsPerBoard;
    pc.horizonEpochs = epochs > 2 ? epochs : 2;
    pc.stepsPerEpoch = 4;
    pc.crashes = 0;
    pc.linkDegrades = 0;
    pc.stragglers = 0;
    pc.checkpointFailures = 0;
    pc.psServerCrashes = 1;
    pc.psShards = bench::benchPsShards();
    pc.boardPartitions = 1;
    pc.partitionWindowEpochs = 1;
    pc.rejoins = 1;
    pc.gradCorrupts = 1;
    pc.seed = bench::benchSeed() + 31;
    return fault::FaultPlan::random(pc);
}

/** One method's measured outcome on one (topology, mix) cell. */
struct Row {
    std::string label;       //!< method/topology/mix
    double simSeconds = 0.0; //!< summed simulated epoch time
    double wallSeconds = 0.0;
    std::size_t epochs = 0;
    double testAcc = 0.0;
    std::uint64_t timelineHash = 0;
    std::size_t failovers = 0;
    std::size_t fenced = 0;
    std::size_t paused = 0;
};

void
emitRow(const Row &r)
{
    std::printf("BENCH {\"label\":\"%s\",\"sim_seconds\":%.6f,"
                "\"wall_seconds\":%.3f,\"epochs\":%zu,"
                "\"test_acc\":%.4f,\"timeline_hash\":\"%016llx\","
                "\"failovers\":%zu,\"fenced\":%zu,\"paused\":%zu}\n",
                r.label.c_str(), r.simSeconds, r.wallSeconds, r.epochs,
                r.testAcc,
                static_cast<unsigned long long>(r.timelineHash),
                r.failovers, r.fenced, r.paused);
}

Row
drive(core::DistTrainer &trainer, std::size_t epochs,
      const std::string &label)
{
    Row row;
    row.label = label;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t e = 0; e < epochs; ++e) {
        const core::EpochRecord rec = trainer.runEpoch();
        row.simSeconds += rec.simSeconds;
        row.paused += rec.paused ? 1 : 0;
        ++row.epochs;
    }
    row.testAcc = trainer.testAccuracy();
    row.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    return row;
}

Row
runMonoPs(const Topology &topo, const FaultMix &mix,
          const data::DataBundle &bundle, std::size_t epochs)
{
    baselines::BaselineConfig cfg;
    cfg.modelFamily = "lenet5";
    cfg.numSocs = topo.numSocs;
    cfg.seed = bench::benchSeed();
    cfg.clusterTemplate = topo.cluster();
    // Stale gradients amplify heavy momentum into oscillation at this
    // scale; both async PS modes run plain SGD so the accuracy column
    // compares architectures, not optimizer dynamics.
    cfg.sgd.momentum = 0.0;
    baselines::SspTrainer trainer(cfg, bundle, mix.staleness);
    fault::FaultInjector inj(planFor(topo, epochs));
    if (mix.faulted)
        trainer.attachFaultInjector(&inj);
    Row row = drive(trainer, epochs,
                    std::string("mono-ps/") + topo.label + "/" +
                        mix.label);
    row.timelineHash = trainer.timelineHash();
    return row;
}

Row
runShardedPs(const Topology &topo, const FaultMix &mix,
             const data::DataBundle &bundle, std::size_t epochs)
{
    ps::ShardedPsConfig cfg;
    cfg.modelFamily = "lenet5";
    cfg.numSocs = topo.numSocs;
    cfg.numShards = bench::benchPsShards();
    cfg.staleness = mix.staleness;
    cfg.seed = bench::benchSeed();
    cfg.clusterTemplate = topo.cluster();
    cfg.sgd.momentum = 0.0; // same rationale as runMonoPs
    ps::ShardedPsTrainer trainer(cfg, bundle);
    fault::FaultInjector inj(planFor(topo, epochs));
    if (mix.faulted)
        trainer.attachFaultInjector(&inj);
    Row row = drive(trainer, epochs,
                    std::string("sharded-ps/") + topo.label + "/" +
                        mix.label);
    row.timelineHash = trainer.timelineHash();
    row.failovers = trainer.failoversTotal();
    row.fenced = trainer.fencedPushes();
    // Staleness bound is a hard invariant, not a target: a violation
    // here is a bench failure, not a data point.
    if (trainer.maxSnapshotAgeAtCompute() > trainer.staleness())
        fatal("staleness bound violated: ",
              trainer.maxSnapshotAgeAtCompute(), " > ",
              trainer.staleness());
    return row;
}

Row
runGroupwise(const Topology &topo, const FaultMix &mix,
             const data::DataBundle &bundle, std::size_t epochs)
{
    core::SoCFlowConfig cfg;
    cfg.modelFamily = "lenet5";
    cfg.numSocs = topo.numSocs;
    cfg.numGroups = topo.numGroups;
    cfg.groupBatch = 16;
    cfg.seed = bench::benchSeed();
    cfg.clusterTemplate = topo.cluster();
    core::SoCFlowTrainer trainer(cfg, bundle);
    fault::FaultInjector inj(planFor(topo, epochs));
    if (mix.faulted)
        trainer.attachFaultInjector(&inj);
    Row row = drive(trainer, epochs,
                    std::string("groupwise/") + topo.label + "/" +
                        mix.label);
    row.timelineHash = trainer.timelineHash();
    return row;
}

/**
 * Flow-model-only incast anchor (no training): the paper's 32-SoC
 * VGG-11 monolithic exchange near 20.6 s vs the same 37 MB split
 * across the shard endpoints.
 */
std::vector<Row>
incastAnchorRows()
{
    sim::ClusterConfig cc;
    cc.numSocs = 32;
    sim::Cluster cluster(cc);
    collectives::CollectiveEngine engine(cluster);

    std::vector<sim::SocId> all(cc.numSocs);
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    const double vggBytes = 37e6;

    Row mono;
    mono.label = "flow/mono-ps/32soc-vgg11";
    mono.epochs = 1;
    mono.simSeconds =
        engine.paramServerDetailed(all, 0, vggBytes).stats.seconds;

    // One server per board, capped at the board count (32 SoCs at 5
    // per board = 7 boards, so the default 8 shards fold onto 7
    // endpoints -- the same rule ShardMap applies).
    const std::size_t nServers =
        std::min(bench::benchPsShards(), cc.numBoards());
    std::vector<sim::SocId> servers;
    for (std::size_t s = 0; s < nServers; ++s)
        servers.push_back(s * cc.socsPerBoard);
    const std::vector<double> perShard(
        nServers, vggBytes / static_cast<double>(nServers));
    Row sharded;
    sharded.label = "flow/sharded-ps/32soc-vgg11";
    sharded.epochs = 1;
    sharded.simSeconds =
        engine.shardedParamServer(all, servers, perShard, perShard)
            .stats.seconds;
    return {mono, sharded};
}

} // namespace

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Warn);
    bench::initBenchObservability(argc, argv);
    bench::rejectUnknownFlags(argc, argv);

    const std::size_t epochs = epochBudget();
    const std::string dataset =
        bench::smokeMode() ? "fmnist" : "emnist";
    data::DataBundle bundle = data::makeDatasetByName(dataset);

    std::vector<Row> rows;
    for (const Topology &topo : topologies()) {
        for (const FaultMix &mix : faultMixes()) {
            std::fprintf(stderr, "[bench] %s/%s mono\n", topo.label, mix.label);
            rows.push_back(runMonoPs(topo, mix, bundle, epochs));
            std::fprintf(stderr, "[bench] %s/%s sharded\n", topo.label, mix.label);
            rows.push_back(runShardedPs(topo, mix, bundle, epochs));
            std::fprintf(stderr, "[bench] %s/%s groupwise\n", topo.label, mix.label);
            rows.push_back(runGroupwise(topo, mix, bundle, epochs));
        }
    }
    for (const Row &r : incastAnchorRows())
        rows.push_back(r);

    Table table("PS vs group-wise head-to-head (seed " +
                std::to_string(bench::benchSeed()) + ", " +
                std::to_string(epochs) + " epochs, shards=" +
                std::to_string(bench::benchPsShards()) + ")");
    table.setHeader({"row", "sim-s", "wall-s", "test-acc", "failovers",
                     "fenced", "paused"});
    for (const Row &r : rows) {
        table.addRow({r.label, formatDouble(r.simSeconds, 2),
                      formatDouble(r.wallSeconds, 2),
                      formatDouble(r.testAcc, 3),
                      std::to_string(r.failovers),
                      std::to_string(r.fenced),
                      std::to_string(r.paused)});
    }
    table.print();
    for (const Row &r : rows)
        emitRow(r);

    // Sanity anchors: the monolithic flow-model exchange must sit in
    // the paper's 20.6 s incast regime and the sharded split must
    // beat it -- the comparison is meaningless if the pricing drifts.
    const Row &mono = rows[rows.size() - 2];
    const Row &sharded = rows[rows.size() - 1];
    if (mono.simSeconds < 0.6 * 20.6 || mono.simSeconds > 1.4 * 20.6) {
        std::fprintf(stderr,
                     "FAIL: monolithic incast anchor %.2f s drifted "
                     "from the paper's 20.6 s\n",
                     mono.simSeconds);
        return 1;
    }
    if (sharded.simSeconds >= mono.simSeconds) {
        std::fprintf(stderr,
                     "FAIL: sharded exchange (%.2f s) no faster than "
                     "monolithic (%.2f s)\n",
                     sharded.simSeconds, mono.simSeconds);
        return 1;
    }

    if (!bench::benchJsonPath().empty()) {
        bench::BenchReport report;
        report.bench = "bench_ps_vs_groupwise";
        report.seed = bench::benchSeed();
        report.scale = bench::benchScale();
        for (const Row &r : rows) {
            bench::BenchRun run;
            run.threads = globalThreadPool().size();
            run.wallSeconds = r.wallSeconds;
            run.epochsTrained = r.epochs;
            run.epochsPerSec = r.wallSeconds > 0.0
                                   ? r.epochs / r.wallSeconds
                                   : 0.0;
            run.timelineHash = r.timelineHash;
            run.label = r.label;
            report.runs.push_back(run);
        }
        if (!bench::writeBenchJson(bench::benchJsonPath(), report)) {
            std::fprintf(stderr, "failed to write %s\n",
                         bench::benchJsonPath().c_str());
            return 1;
        }
        std::fprintf(stderr, "bench report written to %s\n",
                     bench::benchJsonPath().c_str());
    }
    return 0;
}
