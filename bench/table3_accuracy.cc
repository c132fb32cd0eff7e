/**
 * @file
 * Table 3: end-to-end convergence accuracy of every method on every
 * workload (32 SoCs), reported as accuracy and degradation relative
 * to the single-SoC "Local" reference. The transfer-learning row
 * (ResNet-50 fine-tune) pre-trains on the CINIC-10 analog first;
 * the federated baselines are marked "x" there, as in the paper
 * (they did not converge).
 */

#include <cstdio>

#include "bench_common.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace socflow;
using namespace socflow::bench;

namespace {

std::string
accCell(double acc, double local)
{
    return formatDouble(100.0 * acc, 1) + " (" +
           (acc >= local ? "+" : "") +
           formatDouble(100.0 * (acc - local), 1) + ")";
}

void
addSuiteRow(Table &t, const SuiteResult &suite, bool fedConverged)
{
    const double local =
        suite.local ? suite.local->bestTestAcc() : 0.0;
    std::vector<std::string> row = {
        suite.workload.key, formatDouble(100.0 * local, 1)};
    for (const auto &method : suiteMethods()) {
        if (!fedConverged &&
            (method == "FedAvg" || method == "T-FedAvg")) {
            row.push_back("x");
            continue;
        }
        row.push_back(
            accCell(findRun(suite, method).result.bestTestAcc(),
                    local));
    }
    t.addRow(std::move(row));
}

} // namespace

int
main(int argc, char **argv)
{
    bench::initBenchObservability(argc, argv);
    bench::rejectUnknownFlags(argc, argv);
    setLogLevel(LogLevel::Warn);
    Table t("Table 3: convergence accuracy, 32 SoCs "
            "(acc% and degradation vs Local)");
    std::vector<std::string> header = {"workload", "Local"};
    for (const auto &m : suiteMethods())
        header.push_back(m);
    t.setHeader(header);

    for (const auto &w : paperWorkloads()) {
        const SuiteResult suite = runSuite(w, 32, 10, true);
        addSuiteRow(t, suite, true);
        std::fprintf(stderr, "[table3] finished %s\n",
                     w.key.c_str());
    }

    // Transfer learning: pre-train ResNet-50 on the CINIC analog
    // (same class structure, more data), then fine-tune on CIFAR.
    // Skipped in the smoke tier (ResNet-50 pre-training dwarfs the
    // tiny-workload budget).
    if (!smokeMode()) {
        const Workload &w = transferWorkload();
        data::DataBundle pre = data::makeDatasetByName("cinic10");
        baselines::LocalTrainer pretrainer(
            baselineConfig(w, 1), pre, sim::Device::GpuV100);
        core::runTraining(pretrainer, scaledEpochs(6), 0.0, 3);
        const std::vector<float> weights = pretrainer.weights();

        const SuiteResult suite =
            runSuite(w, 32, 6, true, &weights);
        addSuiteRow(t, suite, /*fedConverged=*/false);
    }

    t.print();
    std::printf("\n(paper: exact-sync methods average -0.16 points, "
                "FedAvg family -2.23, SoCFlow -0.81)\n");
    return 0;
}
