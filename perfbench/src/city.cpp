#include "city.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <stdexcept>

#include "analysis/poi_features.h"
#include "common.h"
#include "dsp/spectrum.h"
#include "mapred/thread_pool.h"
#include "ml/distance.h"
#include "pipeline/vectorizer.h"
#include "stream/replay.h"
#include "traffic/columnar.h"

namespace perfbench {

using namespace cellscope;

namespace {

std::uint64_t fnv1a(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

ExperimentConfig city_config(std::uint64_t seed) {
  ExperimentConfig config;
  config.seed = seed;
  config.n_towers = kTowers;
  return config;
}

void section5(const std::vector<std::vector<double>>& zscored,
              const std::vector<int>& labels,
              const ClusterLabeling& labeling, ThreadPool& pool,
              BatchOutput& out) {
  std::vector<std::array<double, 3>> qp;
  {
    Span span("analysis.freq_features");
    const auto features = compute_freq_features(zscored, &pool);
    qp.reserve(features.size());
    for (const auto& f : features) qp.push_back(f.qp_feature());
  }
  std::array<std::array<double, 3>, 4> primary{};
  {
    Span span("analysis.representatives");
    for (int r = 0; r < 4; ++r) {
      const auto& regions = labeling.region_of_cluster;
      const auto it = std::find(regions.begin(), regions.end(),
                                static_cast<FunctionalRegion>(r));
      if (it == regions.end())
        throw std::runtime_error("a pure region has no cluster");
      const auto cluster = static_cast<int>(it - regions.begin());
      primary[r] = qp[find_representative(qp, labels, cluster)];
    }
  }
  {
    Span span("opt.decompose");
    std::uint64_t fp = 0xcbf29ce484222325ULL;
    for (const auto& feature : qp) {
      const Decomposition d = decompose_feature(feature, primary);
      for (const double c : d.coefficients) fp = fnv1a(fp, c);
      fp = fnv1a(fp, d.residual);
    }
    out.decomposition_fp = fp;
    out.decompositions = qp.size();
  }
}

BatchOutput batch_pass(const ExperimentConfig& config, ThreadPool& pool,
                       bool with_energy) {
  const Experiment e = Experiment::run(config);
  BatchOutput out;
  if (with_energy) out.energy_fraction = principal_energy_fraction(e.zscored());
  out.labels = e.labels();
  out.k = e.n_clusters();
  const auto t0 = Clock::now();
  section5(e.zscored(), out.labels, e.labeling(), pool, out);
  out.section5_s = seconds_between(t0, Clock::now());
  return out;
}

BatchOutput traced_batch_pass(const ExperimentConfig& config,
                              ThreadPool& pool) {
  // The stages of Experiment::run, in its order and with its seeds.
  std::unique_ptr<CityModel> city;
  std::vector<Tower> towers;
  {
    Span span("city.deploy");
    city = std::make_unique<CityModel>(CityModel::create_default(config.seed));
    DeploymentOptions deployment;
    deployment.n_towers = config.n_towers;
    deployment.seed = config.seed ^ 0xD1B54A32D192ED03ULL;
    towers = deploy_towers(*city, deployment);
  }
  std::unique_ptr<IntensityModel> intensity;
  {
    Span span("traffic.intensity");
    IntensityOptions options = config.intensity;
    options.seed = config.seed ^ 0x9E3779B97F4A7C15ULL;
    intensity =
        std::make_unique<IntensityModel>(IntensityModel::create(towers, options));
  }
  std::unique_ptr<PoiDatabase> pois;
  {
    Span span("city.poi");
    PoiGenerationOptions options;
    options.scale = config.poi_scale;
    options.seed = config.seed ^ 0xBF58476D1CE4E5B9ULL;
    pois = std::make_unique<PoiDatabase>(
        PoiDatabase::generate(*city, towers, intensity->mixtures(), options));
  }
  TrafficMatrix matrix;
  {
    Span span("pipeline.vectorize");
    matrix = vectorize_intensity(towers, *intensity,
                                 config.seed ^ 0x94D049BB133111EBULL);
  }
  std::vector<std::vector<double>> zscored;
  {
    Span span("pipeline.zscore");
    zscored = zscore_rows(matrix, &pool);
  }
  std::vector<std::vector<double>> folded;
  {
    Span span("pipeline.fold");
    folded = fold_to_week(zscored, &pool);
  }
  std::unique_ptr<DistanceMatrix> distances;
  {
    Span span("ml.distance");
    distances =
        std::make_unique<DistanceMatrix>(DistanceMatrix::compute(folded, &pool));
  }
  std::unique_ptr<Dendrogram> dendrogram;
  {
    Span span("ml.linkage");
    dendrogram = std::make_unique<Dendrogram>(
        Dendrogram::run(std::move(*distances), Linkage::kAverage));
    distances.reset();
  }
  BatchOutput out;
  {
    Span span("ml.dbi_sweep");
    const auto min_cluster_size = static_cast<std::size_t>(
        std::max(2.0, config.min_cluster_fraction *
                          static_cast<double>(config.n_towers)));
    const auto sweep =
        dbi_sweep(*dendrogram, folded, config.k_min,
                  std::min(config.k_max, config.n_towers - 1),
                  min_cluster_size, &pool);
    out.labels = dendrogram->cut_k(best_cut(sweep).k);
    out.k = num_clusters(out.labels);
  }
  ClusterLabeling labeling;
  {
    Span span("analysis.label");
    const auto counts = poi_counts_for_towers(*pois, towers);
    labeling =
        label_clusters_by_poi(normalized_poi_by_cluster(counts, out.labels));
    std::vector<std::size_t> row_tower(matrix.n());
    for (std::size_t i = 0; i < row_tower.size(); ++i) row_tower[i] = i;
    validate_labels(out.labels, labeling, row_tower, towers);
  }
  section5(zscored, out.labels, labeling, pool, out);
  return out;
}

double principal_energy_fraction(
    const std::vector<std::vector<double>>& zscored) {
  std::vector<double> mean(zscored.front().size(), 0.0);
  for (const auto& row : zscored)
    for (std::size_t s = 0; s < row.size(); ++s) mean[s] += row[s];
  for (auto& v : mean) v /= static_cast<double>(zscored.size());
  const Spectrum spectrum(mean);
  return 1.0 - energy_loss(mean, spectrum.reconstruct_principal());
}

TrainedCity train_city(std::uint64_t seed) {
  TrainedCity city;
  city.config = city_config(seed);
  const Experiment e = Experiment::run(city.config);
  city.model = snapshot_model(e);
  const auto& matrix = e.matrix();
  city.tower_ids = matrix.tower_ids;
  city.bytes.resize(matrix.n());
  const auto max_id =
      *std::max_element(city.tower_ids.begin(), city.tower_ids.end());
  city.batch_label_of_tower.assign(max_id + 1, -1);
  for (std::size_t r = 0; r < matrix.n(); ++r) {
    auto& row = city.bytes[r];
    row.resize(matrix.rows[r].size());
    for (std::size_t s = 0; s < row.size(); ++s)
      row[s] = static_cast<std::uint64_t>(
          std::llround(std::max(0.0, matrix.rows[r][s])));
    city.batch_label_of_tower[city.tower_ids[r]] = e.labels()[r];
  }
  return city;
}

void day_records(const TrainedCity& city, std::size_t day,
                 std::vector<TrafficLog>& out) {
  constexpr std::size_t kDaySlots = TimeGrid::kSlotsPerDay;
  const std::size_t source_day = day % kDays;
  for (std::size_t s = 0; s < kDaySlots; ++s) {
    const auto minute = static_cast<std::uint32_t>(
        (day * kDaySlots + s) * TimeGrid::kSlotMinutes);
    for (std::size_t r = 0; r < city.tower_ids.size(); ++r) {
      TrafficLog log;
      log.tower_id = city.tower_ids[r];
      log.start_minute = minute;
      log.end_minute = minute;
      log.bytes = city.bytes[r][source_day * kDaySlots + s];
      out.push_back(std::move(log));
    }
  }
}

std::uint64_t write_city_trace(const TrainedCity& city, std::uint64_t seed,
                               const std::string& path) {
  ColumnarTraceWriter writer(path);
  std::vector<TrafficLog> logs;
  for (std::size_t day = 0; day < kDays; ++day) {
    logs.clear();
    day_records(city, day, logs);
    // stream_replay's default arrival order (examples/stream_replay.cpp
    // --skew, --late).
    ReplayOptions order;
    order.seed = seed * 31 + day;
    order.skew_window = 64;
    order.late_fraction = 0.01;
    logs = perturb_arrival_order(std::move(logs), order);
    writer.append(std::span<const TrafficLog>(logs));
  }
  writer.finish();
  return writer.records_written();
}

}  // namespace perfbench
