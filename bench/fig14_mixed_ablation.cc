/**
 * @file
 * Figure 14: ablation of the mixed-precision data-parallel
 * algorithm. Four variants of SoCFlow train the first epochs of
 * VGG-11 and ResNet-18 and report the accuracy-vs-simulated-time
 * curve:
 *   Ours-FP32  - CPU only;
 *   Ours-Mixed - alpha/beta-controlled split (the full algorithm);
 *   Ours-Half  - fixed 50/50 split;
 *   Ours-INT8  - NPU only.
 */

#include <cstdio>

#include "bench_common.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace socflow;
using namespace socflow::bench;

namespace {

struct Variant {
    const char *name;
    bool mixed, npuOnly;
    double fixedFraction;
};

void
curves(const Workload &w)
{
    data::DataBundle bundle = data::makeDatasetByName(w.dataset);
    const std::size_t epochs = scaledEpochs(6);

    const Variant variants[] = {
        {"Ours-FP32", false, false, -1.0},
        {"Ours-Mixed", true, false, -1.0},
        {"Ours-Half", true, false, 0.5},
        {"Ours-INT8", true, true, -1.0},
    };

    Table t("Figure 14: accuracy vs time, first " +
            std::to_string(epochs) + " epochs (" + w.key +
            ", 32 SoCs)");
    t.setHeader({"variant", "epoch-time", "final-acc%",
                 "acc@25%-time", "alpha-end", "cpu-share"});

    for (const auto &v : variants) {
        core::SoCFlowConfig cfg = oursConfig(w, 32, 8);
        cfg.useMixedPrecision = v.mixed;
        cfg.npuOnly = v.npuOnly;
        cfg.fixedCpuFraction = v.fixedFraction;
        // Communication is identical across the four variants; run
        // without overlap so the compute-side differences the figure
        // studies are visible in the time axis.
        cfg.overlapCommCompute = false;
        core::SoCFlowTrainer trainer(cfg, bundle);
        const auto res = core::runTraining(trainer, epochs);

        // Accuracy reached after 25% of this variant's own time
        // budget (proxy for the early part of the paper's curves).
        const double cut = 0.25 * res.totalSeconds();
        double early = 0.0, acc = 0.0;
        for (const auto &e : res.epochs) {
            early += e.simSeconds;
            if (early <= cut)
                acc = e.testAcc;
        }
        t.addRow({v.name,
                  formatDuration(res.epochs.front().simSeconds),
                  formatDouble(100.0 * res.finalTestAcc(), 1),
                  formatDouble(100.0 * acc, 1),
                  formatDouble(trainer.alpha(), 3),
                  formatDouble(trainer.cpuFraction(), 2)});
    }
    t.print();
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::initBenchObservability(argc, argv);
    bench::rejectUnknownFlags(argc, argv);
    setLogLevel(LogLevel::Warn);
    for (const auto &w : paperWorkloads())
        if (smokeMode() || w.key == "VGG11" || w.key == "ResNet18")
            curves(w);
    std::printf("(paper: Ours-Mixed matches Ours-INT8's speed early "
                "and Ours-FP32's accuracy at convergence; Ours-Half "
                "is dominated on both axes)\n");
    return 0;
}
