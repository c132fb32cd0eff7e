/**
 * @file
 * Figure 8: end-to-end training time to convergence (hours on the
 * simulated cluster) for every method and workload at 32 SoCs, with
 * the paper's ~4 h idle-window line and SoCFlow's speedups.
 */

#include <cstdio>

#include "bench_common.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace socflow;
using namespace socflow::bench;

int
main(int argc, char **argv)
{
    bench::initBenchObservability(argc, argv);
    bench::rejectUnknownFlags(argc, argv);
    setLogLevel(LogLevel::Warn);
    Table t("Figure 8: time to 97% relative convergence, 32 SoCs");
    std::vector<std::string> header = {"workload"};
    for (const auto &m : suiteMethods())
        header.push_back(m);
    header.push_back("speedup-vs-PS");
    header.push_back("speedup-vs-RING");
    t.setHeader(header);

    for (const auto &w : paperWorkloads()) {
        // include_local warms the cache for table3_accuracy as well.
        const SuiteResult suite = runSuite(w, 32, 10, true);
        std::vector<std::string> row = {w.key};
        double psT = 0.0, ringT = 0.0, oursT = 0.0;
        for (const auto &m : suiteMethods()) {
            const auto &run = findRun(suite, m);
            const bool reached = run.result.reached(suite.targetAcc);
            const double sec =
                run.result.secondsToAccuracy(suite.targetAcc);
            row.push_back((reached ? "" : ">") +
                          formatDuration(sec));
            if (m == "PS")
                psT = sec;
            if (m == "RING")
                ringT = sec;
            if (m == "Ours")
                oursT = sec;
        }
        row.push_back(formatDouble(psT / oursT, 1) + "x");
        row.push_back(formatDouble(ringT / oursT, 1) + "x");
        t.addRow(std::move(row));
        std::fprintf(stderr, "[fig08] finished %s\n", w.key.c_str());
    }
    t.print();
    std::printf("\n('>' = target not reached within the epoch budget; "
                "paper: SoCFlow gains 94-741x vs PS, 15-144x vs RING, "
                "and alone finishes inside the ~4 h idle window)\n");
    return 0;
}
