/**
 * @file
 * Shared types of the harvest-day benchmark program: the workload
 * table, one set-up trainer, the per-layer call replays and the host
 * CPU-time sampler.
 */

#ifndef SOCFLOW_PERFBENCH_HARVEST_BENCH_HH
#define SOCFLOW_PERFBENCH_HARVEST_BENCH_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/socflow_trainer.hh"
#include "data/dataset.hh"

namespace perfbench {

/** One named benchmark workload (see BENCHMARK.json for the why). */
struct Workload {
    const char *name;
    std::size_t racks;
    std::size_t groups;
    /** Global thread-pool size the day runs with. */
    std::size_t threads;
    /** Train split size; 0 keeps the analog's full split. */
    std::size_t trainSamples;
    /** Tidal trace slot length: one epoch is tried per slot. */
    double slotMinutes;
    /** Fixed fault plan + durable replicated checkpoints. */
    bool chaos;
};

constexpr std::size_t kBoardsPerRack = 12;
constexpr std::size_t kSocsPerBoard = 5;
constexpr std::size_t kGroupBatch = 32;

inline std::size_t
numSocs(const Workload &w)
{
    return w.racks * kBoardsPerRack * kSocsPerBoard;
}

/**
 * Trainer that tallies what runHarvestDay does not report: simulated
 * energy over every epoch it ran. Forwards to SoCFlowTrainer
 * unchanged, so the timeline is the product's own.
 */
class MeteredTrainer : public socflow::core::SoCFlowTrainer
{
  public:
    using socflow::core::SoCFlowTrainer::SoCFlowTrainer;

    socflow::core::EpochRecord runEpoch() override;

    double energyJoules = 0.0;
};

/** Dataset + trainer for one day, built the way the day needs. */
struct Setup {
    std::unique_ptr<socflow::data::DataBundle> bundle;
    socflow::core::SoCFlowConfig cfg;
    std::unique_ptr<MeteredTrainer> trainer;
    double datasetSeconds = 0.0;
    double trainerSeconds = 0.0;
};

/** Named per-layer replay results, in emission order. */
using Measurements = std::vector<std::pair<std::string, double>>;

/**
 * Host CPU-time samples of one sampled interval: stack (interrupted
 * frame first, each "exe:<hex offset>" or "lib:<file>") -> samples.
 */
using HostSamples = std::map<std::vector<std::string>, std::size_t>;

/**
 * SIGPROF sampler of host CPU time over all threads (sampler.cc).
 * One at a time.
 */
class HostSampler
{
  public:
    /** Sampling period of process CPU time, microseconds. */
    static constexpr long kIntervalUs = 1000;

    void start();
    HostSamples stop();
};

/**
 * Time calls into each module's public functions at the workload's
 * model shapes, cluster and pool size, using the trainer of `s` for
 * the cluster, membership, CPU share and checkpoint blob.
 */
Measurements replayLayers(const Workload &w, Setup &s);

} // namespace perfbench

#endif // SOCFLOW_PERFBENCH_HARVEST_BENCH_HH
