/**
 * @file
 * Quickstart: train a scaled VGG-11 on the CIFAR-10 analog with
 * SoCFlow on a simulated 8-SoC slice of the cluster, and compare
 * against plain Ring-AllReduce.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 *
 * Pass --trace-out=<path> / --metrics-out=<path> to export the
 * Chrome trace_event timeline and the metrics dump.
 */

#include <cstdio>

#include "baselines/local.hh"
#include "bench_common.hh"
#include "core/socflow_trainer.hh"
#include "data/synthetic.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace socflow;

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Warn);
    bench::initBenchObservability(argc, argv);
    bench::rejectUnknownFlags(argc, argv);

    // 1. Make a dataset (a synthetic stand-in for CIFAR-10).
    data::DataBundle bundle = data::makeDatasetByName("cifar10");

    // 2. Configure SoCFlow: 8 SoCs, 2 logical groups, mixed-precision
    //    CPU+NPU training with all paper optimizations on.
    core::SoCFlowConfig cfg;
    cfg.modelFamily = "vgg11";
    cfg.numSocs = 8;
    cfg.numGroups = 2;
    cfg.groupBatch = 32;
    cfg.sgd.learningRate = 0.08;

    core::SoCFlowTrainer ours(cfg, bundle);

    // 3. Train for a few epochs, printing live metrics.
    Table table("SoCFlow quickstart: vgg11 on cifar10-analog, 8 SoCs");
    table.setHeader({"epoch", "train-acc", "test-acc", "alpha",
                     "cpu-share", "sim-time", "energy"});
    for (int epoch = 0; epoch < 8; ++epoch) {
        core::EpochRecord rec = ours.runEpoch();
        table.addRow({std::to_string(epoch),
                      formatDouble(100.0 * rec.trainAcc, 1) + "%",
                      formatDouble(100.0 * ours.testAccuracy(), 1) + "%",
                      formatDouble(ours.alpha(), 3),
                      formatDouble(ours.cpuFraction(), 2),
                      formatDuration(rec.simSeconds),
                      formatDouble(rec.energyJoules / 1000.0, 1) +
                          "kJ"});
    }
    table.print();

    // 4. The same workload on plain Ring-AllReduce for contrast.
    baselines::BaselineConfig bcfg;
    bcfg.modelFamily = cfg.modelFamily;
    bcfg.numSocs = cfg.numSocs;
    bcfg.globalBatch = cfg.groupBatch;
    auto ring = baselines::makeBaseline("RING", bcfg, bundle);
    core::EpochRecord r = ring->runEpoch();
    std::printf("\nRING baseline, one epoch: test-acc %.1f%%, "
                "sim-time %s (vs SoCFlow above)\n",
                100.0 * ring->testAccuracy(),
                formatDuration(r.simSeconds).c_str());
    return 0;
}
