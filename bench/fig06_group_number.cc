/**
 * @file
 * Figure 6: final convergence accuracy and first-epoch accuracy as
 * the logical-group count grows (VGG-11 and ResNet-18 on the
 * CIFAR-10 analog, 32 SoCs). The first-epoch curve tracking the
 * final curve is what justifies the warm-up group-size heuristic;
 * the bench also reports what the heuristic would pick.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/group_plan.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace socflow;
using namespace socflow::bench;

namespace {

void
sweep(const Workload &w)
{
    data::DataBundle bundle = data::makeDatasetByName(w.dataset);
    Table t("Figure 6: accuracy vs group number (" + w.key + ")");
    t.setHeader({"groups", "first-epoch-acc%", "final-acc%"});

    std::vector<std::size_t> candidates = {1, 2, 4, 8, 16, 32};
    std::vector<double> firstEpoch;
    for (std::size_t n : candidates) {
        core::SoCFlowTrainer trainer(oursConfig(w, 32, n), bundle);
        trainer.runEpoch();
        const double first = trainer.testAccuracy();
        firstEpoch.push_back(first);
        const std::size_t extra = scaledEpochs(6);
        for (std::size_t e = 1; e < extra; ++e)
            trainer.runEpoch();
        t.addRow({std::to_string(n), formatDouble(100.0 * first, 1),
                  formatDouble(100.0 * trainer.testAccuracy(), 1)});
    }
    t.print();

    // What the warm-up heuristic would choose from these profiles.
    std::size_t i = 0;
    const core::GroupSizeDecision d = core::selectGroupCount(
        candidates, [&](std::size_t) { return firstEpoch[i++]; });
    std::printf("heuristic choice: %zu groups (paper picks 4-8)\n\n",
                d.chosenGroups);
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
            sweep(w);
    return 0;
}
