/**
 * @file
 * Figure 3: busy-SoC ratio within a day on deployed SoC-Cluster
 * servers (tidal phenomenon), plus the idle-window statistics that
 * motivate harvesting.
 */

#include <cstdio>

#include "bench_common.hh"
#include "trace/tidal.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace socflow;

int
main(int argc, char **argv)
{
    bench::initBenchObservability(argc, argv);
    bench::rejectUnknownFlags(argc, argv);
    setLogLevel(LogLevel::Warn);
    trace::TidalConfig cfg;  // 60 SoCs, 5-minute slots
    trace::TidalTrace tidal(cfg);

    Table t("Figure 3: busy SoCs (%) by hour of day (60-SoC server)");
    t.setHeader({"hour", "busy-socs-%", "demand-%"});
    for (int hour = 0; hour < 24; ++hour) {
        double busy = 0.0;
        int slots = 0;
        for (std::size_t s = 0; s < tidal.numSlots(); ++s) {
            if (static_cast<int>(tidal.slotHour(s)) == hour) {
                busy += tidal.busyFraction(s);
                ++slots;
            }
        }
        busy /= slots;
        t.addRow({std::to_string(hour) + ":00",
                  formatDouble(100.0 * busy, 1),
                  formatDouble(100.0 * tidal.demand(hour + 0.5), 1)});
    }
    t.print();

    const double peak = tidal.demand(cfg.peakHour);
    const double trough = tidal.demand(cfg.peakHour + 12.0);
    std::printf("\npeak/trough demand ratio: %.1fx "
                "(paper: >10x, ~order of magnitude)\n",
                peak / trough);
    std::printf("longest window with >=32 idle SoCs: %.1f h "
                "(the paper's ~4 h overnight idle frame)\n",
                tidal.longestIdleWindowHours(32));
    return 0;
}
