// The benchmark's seeded city and the work every workload builds on: the
// paper's batch analysis (untraced through Experiment::run, or traced
// stage by stage), the trained model, and the city's 28-day matrix
// rendered as traffic records.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time_grid.h"
#include "core/experiment.h"
#include "stream/online_classifier.h"
#include "traffic/trace_record.h"

namespace cellscope {
class ThreadPool;
}

namespace perfbench {

/// A quarter of the paper's 9,600 towers: the largest city whose O(n²)
/// clustering still finishes in about a second on a 4-core host.
inline constexpr std::size_t kTowers = 2400;

/// Days in the city's traffic matrix (the paper's four weeks).
inline constexpr std::size_t kDays =
    cellscope::TimeGrid::kSlots / cellscope::TimeGrid::kSlotsPerDay;

/// Default experiment configuration over the benchmark city.
cellscope::ExperimentConfig city_config(std::uint64_t seed);

/// What one batch pass produced, reduced to what the output checks
/// compare across passes.
struct BatchOutput {
  std::vector<int> labels;         ///< cluster per matrix row
  std::size_t k = 0;               ///< clusters at the chosen cut
  std::uint64_t decomposition_fp = 0;  ///< fingerprint of every §5.3 result
  std::size_t decompositions = 0;
  /// principal_energy_fraction of the pass's z-scored rows; computed
  /// only when asked for (-1 otherwise).
  double energy_fraction = -1.0;
  double section5_s = 0.0;  ///< wall time of section5() in the pass
};

/// The §5 analysis over one finished clustering: frequency features of
/// every tower, the representative of each pure region, and the convex
/// decomposition of every tower. Layers are spanned when tracing is on.
void section5(const std::vector<std::vector<double>>& zscored,
              const std::vector<int>& labels,
              const cellscope::ClusterLabeling& labeling,
              cellscope::ThreadPool& pool, BatchOutput& out);

/// One batch pass as users run it: Experiment::run, then section5.
BatchOutput batch_pass(const cellscope::ExperimentConfig& config,
                       cellscope::ThreadPool& pool,
                       bool with_energy = false);

/// The same pass with every stage called one by one on `pool`, each
/// under its layer span.
BatchOutput traced_batch_pass(const cellscope::ExperimentConfig& config,
                              cellscope::ThreadPool& pool);

/// Share of signal energy the three principal DFT components keep on the
/// mean z-scored series (the paper's > 94 % claim).
double principal_energy_fraction(
    const std::vector<std::vector<double>>& zscored);

/// The trained model and the batch answers the live paths are checked
/// against.
struct TrainedCity {
  cellscope::ExperimentConfig config;
  std::vector<std::uint32_t> tower_ids;              ///< matrix row -> id
  std::vector<std::vector<std::uint64_t>> bytes;     ///< [row][slot]
  std::vector<int> batch_label_of_tower;             ///< by tower id
  cellscope::ModelSnapshot model;
};

/// Experiment::run + snapshot_model over the benchmark city.
TrainedCity train_city(std::uint64_t seed);

/// Appends the records of day `day` (0-based, any day >= 0) for every
/// tower: one record per tower-slot, slot-major, carrying the bytes of
/// day `day % 28` shifted to day `day`.
void day_records(const TrainedCity& city, std::size_t day,
                 std::vector<cellscope::TrafficLog>& out);

/// Writes the city's 28 days as a columnar trace: each day's records are
/// put in a seeded, skewed arrival order (stream_replay's default bounded
/// local reorder and late tail). Returns the record count.
std::uint64_t write_city_trace(const TrainedCity& city, std::uint64_t seed,
                               const std::string& path);

}  // namespace perfbench
