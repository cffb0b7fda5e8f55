// Unit tests of src/core: configuration validation, reservoir sampling,
// Page-Hinkley drift detection, and SpotDetector behaviour.

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/detector.h"
#include "core/drift_detector.h"
#include "core/reservoir.h"
#include "core/spot_config.h"
#include "grid/decay.h"
#include "stream/synthetic.h"

namespace spot {
namespace {

// --------------------------------------------------------- SpotConfig ----

TEST(SpotConfigTest, DefaultIsValid) {
  EXPECT_EQ(SpotConfig{}.Validate(), "");
}

// Every double the config serializes must be finite. NaN used to pass
// every range check (`epsilon <= 0.0 || epsilon >= 1.0` is false for it),
// and several fields had no check at all, so a NaN-epsilon session was
// created and served, and its checkpoint then never loaded.
TEST(SpotConfigTest, RejectsNonFiniteDoubles) {
  using Field = double& (*)(SpotConfig&);
  const std::pair<const char*, Field> fields[] = {
      {"epsilon", [](SpotConfig& c) -> double& { return c.epsilon; }},
      {"partition_margin",
       [](SpotConfig& c) -> double& { return c.partition_margin; }},
      {"domain_lo", [](SpotConfig& c) -> double& { return c.domain_lo; }},
      {"domain_hi", [](SpotConfig& c) -> double& { return c.domain_hi; }},
      {"rd_threshold",
       [](SpotConfig& c) -> double& { return c.rd_threshold; }},
      {"irsd_threshold",
       [](SpotConfig& c) -> double& { return c.irsd_threshold; }},
      {"fringe_factor",
       [](SpotConfig& c) -> double& { return c.fringe_factor; }},
      {"unsupervised crossover_prob",
       [](SpotConfig& c) -> double& {
         return c.unsupervised.moga.crossover_prob;
       }},
      {"unsupervised mutation_prob",
       [](SpotConfig& c) -> double& {
         return c.unsupervised.moga.mutation_prob;
       }},
      {"outlying_degree threshold",
       [](SpotConfig& c) -> double& {
         return c.unsupervised.outlying_degree.threshold;
       }},
      {"outlying_degree threshold_scale",
       [](SpotConfig& c) -> double& {
         return c.unsupervised.outlying_degree.threshold_scale;
       }},
      {"supervised crossover_prob",
       [](SpotConfig& c) -> double& {
         return c.supervised.moga.crossover_prob;
       }},
      {"supervised mutation_prob",
       [](SpotConfig& c) -> double& {
         return c.supervised.moga.mutation_prob;
       }},
      {"evolution mutation_prob",
       [](SpotConfig& c) -> double& { return c.evolution.mutation_prob; }},
      {"drift_delta", [](SpotConfig& c) -> double& { return c.drift_delta; }},
      {"drift_lambda",
       [](SpotConfig& c) -> double& { return c.drift_lambda; }},
      {"prune_threshold",
       [](SpotConfig& c) -> double& { return c.prune_threshold; }},
  };
  const auto bytes = [](const SpotConfig& c) {
    ByteWriter w;
    WriteConfigBinary(w, c);
    return w.Take();
  };
  const std::string defaults = bytes(SpotConfig{});
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [name, field] : fields) {
    for (const double bad :
         {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
      SpotConfig c;
      field(c) = bad;
      EXPECT_NE(bytes(c), defaults) << name << " is not serialized";
      EXPECT_NE(c.Validate(), "") << name << " = " << bad;
    }
  }
}

TEST(SpotConfigTest, RejectsBadValues) {
  SpotConfig c;
  c.omega = 0;
  EXPECT_NE(c.Validate(), "");

  c = SpotConfig{};
  c.epsilon = 1.5;
  EXPECT_NE(c.Validate(), "");

  c = SpotConfig{};
  c.epsilon = 0.0;
  EXPECT_NE(c.Validate(), "");

  c = SpotConfig{};
  c.cells_per_dim = 1;
  EXPECT_NE(c.Validate(), "");

  c = SpotConfig{};
  c.rd_threshold = -0.1;
  EXPECT_NE(c.Validate(), "");

  c = SpotConfig{};
  c.unsupervised.moga.population_size = 1;
  EXPECT_NE(c.Validate(), "");

  c = SpotConfig{};
  c.num_shards = SpotConfig::kMaxShards + 1;
  EXPECT_NE(c.Validate(), "");

  // Values that size allocations are bounded.
  c = SpotConfig{};
  c.reservoir_capacity = SpotConfig::kMaxRetainedPoints + 1;
  EXPECT_NE(c.Validate(), "");

  c = SpotConfig{};
  c.topk_capacity = SpotConfig::kMaxRetainedPoints + 1;
  EXPECT_NE(c.Validate(), "");

  c = SpotConfig{};
  c.fs_cap = SpotConfig::kMaxSubspaces + 1;
  EXPECT_NE(c.Validate(), "");

  c = SpotConfig{};
  c.evolution.offspring = SpotConfig::kMaxSubspaces + 1;
  EXPECT_NE(c.Validate(), "");

  c = SpotConfig{};
  c.unsupervised.moga.population_size =
      static_cast<int>(SpotConfig::kMaxSubspaces) + 1;
  EXPECT_NE(c.Validate(), "");

  c = SpotConfig{};
  c.supervised.moga.population_size = -1;
  EXPECT_NE(c.Validate(), "");

  // Values that set how long a search runs on the calling thread are
  // bounded too.
  c = SpotConfig{};
  c.unsupervised.moga.population_size = SpotConfig::kMaxMogaPopulation + 1;
  EXPECT_NE(c.Validate(), "");

  c = SpotConfig{};
  c.supervised.moga.population_size = SpotConfig::kMaxMogaPopulation + 1;
  EXPECT_NE(c.Validate(), "");

  c = SpotConfig{};
  c.unsupervised.moga.generations = SpotConfig::kMaxMogaGenerations + 1;
  EXPECT_NE(c.Validate(), "");

  c = SpotConfig{};
  c.supervised.moga.generations = SpotConfig::kMaxMogaGenerations + 1;
  EXPECT_NE(c.Validate(), "");

  c = SpotConfig{};
  c.supervised.moga.generations = 0;
  EXPECT_NE(c.Validate(), "");

  c = SpotConfig{};
  c.unsupervised.outlying_degree.num_runs = 0;
  EXPECT_NE(c.Validate(), "");

  c = SpotConfig{};
  c.unsupervised.outlying_degree.num_runs = SpotConfig::kMaxOutlyingRuns + 1;
  EXPECT_NE(c.Validate(), "");

  // So is the number of searches Learn starts, one per top outlying point.
  c = SpotConfig{};
  c.unsupervised.top_outlying_points = SpotConfig::kMaxTopOutlyingPoints + 1;
  EXPECT_NE(c.Validate(), "");

  c = SpotConfig{};
  c.unsupervised.top_outlying_points = std::size_t{1} << 40;
  EXPECT_NE(c.Validate(), "");

  // The caps themselves are accepted.
  c = SpotConfig{};
  c.unsupervised.moga.population_size = SpotConfig::kMaxMogaPopulation;
  c.supervised.moga.generations = SpotConfig::kMaxMogaGenerations;
  c.unsupervised.outlying_degree.num_runs = SpotConfig::kMaxOutlyingRuns;
  c.unsupervised.top_outlying_points = SpotConfig::kMaxTopOutlyingPoints;
  EXPECT_EQ(c.Validate(), "");
}

// ---------------------------------------------------------- Reservoir ----

TEST(ReservoirTest, FillsToCapacityThenSamples) {
  ReservoirSample r(10, 1);
  for (int i = 0; i < 10; ++i) r.Add({static_cast<double>(i)});
  EXPECT_EQ(r.size(), 10u);
  for (int i = 10; i < 1000; ++i) r.Add({static_cast<double>(i)});
  EXPECT_EQ(r.size(), 10u);
  EXPECT_EQ(r.seen(), 1000u);
}

TEST(ReservoirTest, SampleIsRoughlyUniform) {
  // Feed 0..9999; the mean of a uniform sample should be near 5000.
  ReservoirSample r(200, 7);
  for (int i = 0; i < 10000; ++i) r.Add({static_cast<double>(i)});
  double sum = 0.0;
  for (const auto& item : r.Items()) sum += item[0];
  const double mean = sum / static_cast<double>(r.size());
  EXPECT_NEAR(mean, 5000.0, 700.0);
}

TEST(ReservoirTest, ClearResets) {
  ReservoirSample r(5, 3);
  for (int i = 0; i < 20; ++i) r.Add({1.0});
  r.Clear();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.seen(), 0u);
}

// --------------------------------------------------------- PageHinkley ----

TEST(PageHinkleyTest, NoDriftOnStationarySignal) {
  PageHinkley ph(0.01, 8.0);
  Rng rng(5);
  bool drift = false;
  for (int i = 0; i < 20000; ++i) {
    drift = ph.Add(rng.NextBernoulli(0.02) ? 1.0 : 0.0) || drift;
  }
  EXPECT_FALSE(drift);
}

TEST(PageHinkleyTest, DetectsRateJump) {
  PageHinkley ph(0.01, 8.0);
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) ph.Add(rng.NextBernoulli(0.01) ? 1.0 : 0.0);
  std::uint64_t first_alarm = 0;
  for (std::uint64_t i = 0; i < 5000 && first_alarm == 0; ++i) {
    if (ph.Add(rng.NextBernoulli(0.3) ? 1.0 : 0.0)) first_alarm = i + 1;
  }
  EXPECT_GT(first_alarm, 0u);
  EXPECT_LT(first_alarm, 500u);  // alarms promptly after the jump
  EXPECT_GE(ph.drifts(), 1u);
}

TEST(PageHinkleyTest, ResetsAfterDrift) {
  PageHinkley ph(0.0, 0.5);
  // Deterministic ramp guarantees an alarm.
  bool drift = false;
  for (int i = 0; i < 100 && !drift; ++i) {
    drift = ph.Add(i < 10 ? 0.0 : 1.0);
  }
  ASSERT_TRUE(drift);
  EXPECT_EQ(ph.count(), 0u);  // state cleared
  EXPECT_DOUBLE_EQ(ph.statistic(), 0.0);
}

TEST(PageHinkleyTest, MeanTracksSignal) {
  PageHinkley ph(0.005, 100.0);
  for (int i = 0; i < 100; ++i) ph.Add(0.5);
  EXPECT_NEAR(ph.mean(), 0.5, 1e-9);
}

// -------------------------------------------------------- SpotDetector ----

SpotConfig SmallConfig() {
  SpotConfig cfg;
  cfg.omega = 2000;
  cfg.epsilon = 0.01;
  cfg.cells_per_dim = 5;
  cfg.fs_max_dimension = 1;
  cfg.cs_capacity = 8;
  cfg.os_capacity = 8;
  cfg.unsupervised.moga.population_size = 12;
  cfg.unsupervised.moga.generations = 5;
  cfg.unsupervised.top_outlying_points = 4;
  cfg.unsupervised.top_subspaces_per_run = 4;
  cfg.supervised.moga.population_size = 12;
  cfg.supervised.moga.generations = 5;
  cfg.evolution_period = 0;     // keep unit tests deterministic and fast
  cfg.os_update_every = 0;      // disabled unless a test enables it
  cfg.domain_lo = 0.0;
  cfg.domain_hi = 1.0;  // generators emit unit-cube data
  cfg.drift_detection = false;
  cfg.seed = 101;
  return cfg;
}

std::vector<std::vector<double>> TrainingBatch(int n, int dims,
                                               std::uint64_t seed) {
  stream::SyntheticConfig scfg;
  scfg.dimension = dims;
  scfg.outlier_probability = 0.0;
  scfg.seed = seed;
  stream::GaussianStream gen(scfg);
  return ValuesOf(Take(gen, static_cast<std::size_t>(n)));
}

// Two tight blobs (centers 0.3 and 0.45, sigma 0.02) over the explicit
// [0, 1] domain: training mass stays within cells 1-2 of the default
// 5-cell partition, so a value near 0.95 (cell 4) is at least two cells
// from all mass — outlying and beyond fringe suppression's reach.
std::vector<std::vector<double>> TwoClusterBatch(int n, int dims,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double center = (i % 2 == 0) ? 0.3 : 0.45;
    std::vector<double> row(static_cast<std::size_t>(dims));
    for (double& v : row) v = center + 0.02 * rng.NextGaussian();
    out.push_back(std::move(row));
  }
  return out;
}

TEST(SpotDetectorTest, RequiresLearnBeforeProcess) {
  SpotDetector det(SmallConfig());
  EXPECT_FALSE(det.learned());
  const SpotResult r = det.Process(std::vector<double>{0.5, 0.5, 0.5, 0.5});
  EXPECT_FALSE(r.is_outlier);
  EXPECT_TRUE(r.findings.empty());
}

TEST(SpotDetectorTest, LearnRejectsEmptyTraining) {
  SpotDetector det(SmallConfig());
  EXPECT_FALSE(det.Learn({}));
}

TEST(SpotDetectorTest, LearnRejectsInvalidConfig) {
  SpotConfig cfg = SmallConfig();
  cfg.omega = 0;
  SpotDetector det(cfg);
  EXPECT_FALSE(det.Learn(TrainingBatch(100, 4, 1)));
}

TEST(SpotDetectorTest, LearnRejectsTooManyDims) {
  SpotDetector det(SmallConfig());
  std::vector<std::vector<double>> wide(10, std::vector<double>(80, 0.5));
  EXPECT_FALSE(det.Learn(wide));
}

// The stream width is the first training row's. A row of another width
// would be read past its end (or cut short), so Learn refuses the batch,
// as Ingest and ApplyFeedback refuse a point or example of the wrong
// width, and so an expert example of another width. The refusal comes
// before any state changes: a learned detector keeps its whole state.
TEST(SpotDetectorTest, LearnRefusesRaggedRowsWithoutStateChange) {
  const auto training = TrainingBatch(300, 6, 2);
  auto short_row = training;
  short_row[150].resize(2);
  auto long_row = training;
  long_row.back().push_back(0.5);
  DomainKnowledge wide_example;
  wide_example.outlier_examples = {std::vector<double>(7, 0.9)};

  SpotDetector det(SmallConfig());
  EXPECT_FALSE(det.Learn(short_row));
  EXPECT_FALSE(det.Learn(long_row));
  EXPECT_FALSE(det.Learn(training, &wide_example));
  EXPECT_FALSE(det.learned());

  ASSERT_TRUE(det.Learn(training));
  det.ProcessBatch(TrainingBatch(50, 6, 3));
  const std::string image = det.SaveState();
  EXPECT_FALSE(det.Learn(short_row));
  EXPECT_FALSE(det.Learn(long_row));
  EXPECT_FALSE(det.Learn(training, &wide_example));
  EXPECT_EQ(det.SaveState(), image);
}

// A relevant attribute outside [0, width) names no column of the rows: Learn
// refuses it before anything is built, whether the detector is fresh or
// already learned (its checkpoint image stays byte for byte the same).
TEST(SpotDetectorTest, LearnRefusesOutOfRangeRelevantAttributes) {
  const auto training = TrainingBatch(300, 4, 2);
  std::vector<DomainKnowledge> refused(2);
  refused[0].relevant_attributes = {1, 9};
  refused[1].relevant_attributes = {-1};
  for (DomainKnowledge& knowledge : refused) {
    knowledge.outlier_examples = {std::vector<double>(4, 0.9)};
  }

  SpotDetector det(SmallConfig());
  for (const DomainKnowledge& knowledge : refused) {
    EXPECT_FALSE(det.Learn(training, &knowledge));
  }
  EXPECT_FALSE(det.learned());

  DomainKnowledge accepted = refused[0];
  accepted.relevant_attributes = {1, 3};
  ASSERT_TRUE(det.Learn(training, &accepted));
  det.ProcessBatch(TrainingBatch(50, 4, 3));
  const std::string image = det.SaveState();
  for (const DomainKnowledge& knowledge : refused) {
    EXPECT_FALSE(det.Learn(training, &knowledge));
  }
  EXPECT_EQ(det.SaveState(), image);
}

TEST(SpotDetectorTest, LearnBuildsSstAndWarmStartsSynapses) {
  SpotDetector det(SmallConfig());
  ASSERT_TRUE(det.Learn(TrainingBatch(300, 6, 2)));
  EXPECT_TRUE(det.learned());
  // FS = 6 singletons; CS adds more.
  EXPECT_EQ(det.sst().fixed().size(), 6u);
  EXPECT_GE(det.TrackedSubspaces(), 6u);
  // After 300 warm-start points the decayed total weight equals the
  // partial geometric sum steady * (1 - alpha^300) — well below the raw
  // count and capped by the model's steady state.
  const DecayModel model(det.config().omega, det.config().epsilon);
  const double steady = model.SteadyStateWeight();
  const double expected = steady * (1.0 - model.WeightAtAge(300));
  EXPECT_NEAR(det.synapses().TotalWeight(), expected, 1e-6 * expected);
  EXPECT_LT(det.synapses().TotalWeight(), 300.0);
}

TEST(SpotDetectorTest, NormalPointsMostlyPassClean) {
  SpotDetector det(SmallConfig());
  ASSERT_TRUE(det.Learn(TrainingBatch(500, 6, 3)));
  stream::SyntheticConfig scfg;
  scfg.dimension = 6;
  scfg.outlier_probability = 0.0;
  scfg.seed = 3;  // same concept as training
  stream::GaussianStream gen(scfg);
  int flagged = 0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    if (det.Process(gen.Next()->point.values).is_outlier) ++flagged;
  }
  EXPECT_LT(static_cast<double>(flagged) / n, 0.15);
}

TEST(SpotDetectorTest, GrossProjectedOutlierIsFlaggedWithSubspace) {
  SpotDetector det(SmallConfig());
  const auto training = TwoClusterBatch(500, 6, 4);
  ASSERT_TRUE(det.Learn(training));
  // Stream more normal two-cluster data, then a point far out in
  // attribute 2 only.
  const auto stream_data = TwoClusterBatch(200, 6, 5);
  for (const auto& row : stream_data) det.Process(row);

  std::vector<double> outlier = training.front();
  outlier[2] = 0.95;  // far from both blobs in attribute 2 alone
  const SpotResult r = det.Process(outlier);
  EXPECT_TRUE(r.is_outlier);
  bool dim2_blamed = false;
  for (const auto& f : r.findings) {
    if (f.subspace.Contains(2)) dim2_blamed = true;
    EXPECT_LE(f.pcs.rd, det.config().rd_threshold);
    EXPECT_LE(f.pcs.irsd, det.config().irsd_threshold);
  }
  EXPECT_TRUE(dim2_blamed);
  EXPECT_GT(r.score, 0.8);
}

TEST(SpotDetectorTest, StatsAccumulate) {
  SpotDetector det(SmallConfig());
  ASSERT_TRUE(det.Learn(TrainingBatch(200, 5, 5)));
  stream::SyntheticConfig scfg;
  scfg.dimension = 5;
  scfg.seed = 5;
  stream::GaussianStream gen(scfg);
  for (int i = 0; i < 100; ++i) det.Process(gen.Next()->point.values);
  EXPECT_EQ(det.stats().points_processed, 100u);
}

TEST(SpotDetectorTest, SupervisedKnowledgePopulatesOs) {
  SpotConfig cfg = SmallConfig();
  SpotDetector det(cfg);
  const auto training = TrainingBatch(300, 5, 6);
  DomainKnowledge knowledge;
  std::vector<double> example = training.front();
  example[3] = 0.999;
  knowledge.outlier_examples.push_back(example);
  ASSERT_TRUE(det.Learn(training, &knowledge));
  EXPECT_FALSE(det.sst().outlier_driven().empty());
}

// A feedback round runs one MOGA search per label on the calling thread,
// so a round with more than SpotConfig::kMaxFeedbackLabels labels is
// refused before its RNG draw, like every other refusal: the detector's
// next verdicts equal those of a twin that never saw the round.
TEST(SpotDetectorTest, RefusesFeedbackRoundsAboveTheLabelCap) {
  const auto training = TrainingBatch(300, 6, 2);
  SpotDetector det(SmallConfig());
  SpotDetector twin(SmallConfig());
  ASSERT_TRUE(det.Learn(training));
  ASSERT_TRUE(twin.Learn(training));
  const auto warmup = TrainingBatch(200, 6, 7);
  det.ProcessBatch(warmup);
  twin.ProcessBatch(warmup);

  const std::vector<double> example(6, 0.95);
  std::vector<std::vector<double>> examples(
      SpotConfig::kMaxFeedbackLabels + 1, example);
  std::string error;
  EXPECT_FALSE(det.ApplyFeedback({}, examples, &error));
  EXPECT_NE(error.find("labels"), std::string::npos) << error;
  EXPECT_EQ(det.stats().feedback_rounds, 0u);

  const auto batch = TrainingBatch(100, 6, 8);
  const auto got = det.ProcessBatch(batch);
  const auto want = twin.ProcessBatch(batch);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].is_outlier, want[i].is_outlier) << i;
    EXPECT_EQ(got[i].score, want[i].score) << i;
  }

  // A round at the cap is accepted.
  examples.pop_back();
  EXPECT_TRUE(det.ApplyFeedback({}, examples, &error)) << error;
}

TEST(SpotDetectorTest, OsGrowsFromDetectedOutliers) {
  SpotConfig cfg = SmallConfig();
  cfg.os_update_every = 1;  // grow on every detection
  SpotDetector det(cfg);
  const auto training = TwoClusterBatch(300, 5, 7);
  ASSERT_TRUE(det.Learn(training));
  const std::size_t os_before = det.sst().outlier_driven().size();
  // Hammer the detector with obvious projected outliers.
  for (int i = 0; i < 10; ++i) {
    std::vector<double> outlier = training.front();
    outlier[1] = 0.95;
    det.Process(outlier);
  }
  EXPECT_GT(det.stats().os_growth_runs, 0u);
  EXPECT_GE(det.sst().outlier_driven().size(), os_before);
}

TEST(SpotDetectorTest, EvolutionRoundsRunOnSchedule) {
  SpotConfig cfg = SmallConfig();
  cfg.evolution_period = 100;
  SpotDetector det(cfg);
  ASSERT_TRUE(det.Learn(TrainingBatch(300, 5, 8)));
  ASSERT_FALSE(det.sst().clustering().empty());
  stream::SyntheticConfig scfg;
  scfg.dimension = 5;
  scfg.seed = 8;
  stream::GaussianStream gen(scfg);
  for (int i = 0; i < 350; ++i) det.Process(gen.Next()->point.values);
  EXPECT_GE(det.stats().evolution_rounds, 3u);
}

TEST(SpotDetectorTest, FsCapSamplesWhenLatticeTooBig) {
  SpotConfig cfg = SmallConfig();
  cfg.fs_max_dimension = 3;
  cfg.fs_cap = 50;  // C(10,1)+C(10,2)+C(10,3) = 175 > 50
  SpotDetector det(cfg);
  ASSERT_TRUE(det.Learn(TrainingBatch(200, 10, 9)));
  EXPECT_EQ(det.sst().fixed().size(), 50u);
}

TEST(SpotDetectorTest, ScoreIsMonotoneWithSparsity) {
  SpotDetector det(SmallConfig());
  const auto training = TwoClusterBatch(500, 5, 10);
  ASSERT_TRUE(det.Learn(training));
  const SpotResult normal = det.Process(training.front());
  std::vector<double> weird = training.front();
  weird[0] = 0.02;
  weird[4] = 0.95;
  const SpotResult anomalous = det.Process(weird);
  EXPECT_GE(anomalous.score, normal.score);
}

TEST(SpotStreamAdapterTest, AdaptsResults) {
  SpotDetector det(SmallConfig());
  const auto training = TwoClusterBatch(300, 5, 11);
  ASSERT_TRUE(det.Learn(training));
  SpotStreamAdapter adapter(&det);
  EXPECT_EQ(adapter.name(), "SPOT");
  DataPoint p;
  p.values = training.front();
  p.values[2] = 0.95;
  const Detection d = adapter.Process(p);
  EXPECT_TRUE(d.is_outlier);
  EXPECT_FALSE(d.outlying_subspaces.empty());
}

}  // namespace
}  // namespace spot
