#include <gtest/gtest.h>

#include <cmath>

#include "cost/amalur_cost_model.h"
#include "cost/cost_features.h"
#include "cost/morpheus_heuristic.h"
#include "factorized/scenario_builder.h"
#include "integration/running_example.h"

namespace amalur {
namespace cost {
namespace {

CostFeatures FeaturesFor(const rel::SiloPairSpec& spec) {
  rel::SiloPair pair = rel::GenerateSiloPair(spec);
  auto metadata = factorized::DerivePairMetadata(pair);
  AMALUR_CHECK(metadata.ok()) << metadata.status();
  return CostFeatures::FromMetadata(*metadata);
}

/// The Morpheus sweet spot: high fan-out star join with a wide dimension.
rel::SiloPairSpec HighRedundancySpec() {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kLeftJoin;
  spec.base_rows = 2000;
  spec.other_rows = 50;   // tuple ratio 40
  spec.base_features = 1;
  spec.other_features = 60;  // feature ratio 60
  spec.seed = 1;
  return spec;
}

/// No redundancy anywhere: 1:1 inner join.
rel::SiloPairSpec NoRedundancySpec() {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kInnerJoin;
  spec.base_rows = 1000;
  spec.other_rows = 1000;
  spec.base_features = 5;
  spec.other_features = 5;
  spec.seed = 2;
  return spec;
}

TEST(CostFeaturesTest, ExtractedFromRunningExample) {
  integration::RunningExample ex = integration::MakeRunningExample();
  auto metadata =
      metadata::DiMetadata::Derive(ex.mapping, {&ex.s1, &ex.s2}, ex.matching);
  ASSERT_TRUE(metadata.ok());
  CostFeatures f = CostFeatures::FromMetadata(*metadata);
  EXPECT_EQ(f.target_rows, 6u);
  EXPECT_EQ(f.target_cols, 4u);
  ASSERT_EQ(f.sources.size(), 2u);
  EXPECT_EQ(f.sources[0].rows, 4u);
  EXPECT_EQ(f.sources[0].cols, 3u);
  EXPECT_EQ(f.sources[0].contributed_rows, 4u);
  EXPECT_EQ(f.sources[0].redundant_cells, 0u);
  EXPECT_EQ(f.sources[1].contributed_rows, 3u);
  EXPECT_EQ(f.sources[1].redundant_cells, 2u);  // Jane's m, a
  EXPECT_EQ(f.sources[1].EffectiveCells(), 3u * 3u - 2u);
  EXPECT_FALSE(f.all_tgds_full);  // full outer join
  EXPECT_DOUBLE_EQ(f.TupleRatio(1), 2.0);
  EXPECT_DOUBLE_EQ(f.FeatureRatio(1), 1.0);
  EXPECT_EQ(f.TotalSourceCells(), 12u + 9u);
  EXPECT_EQ(f.TargetCells(), 24u);
  // Factorized compute cells: S1's 4 rows × 3 columns; S2's two unmasked
  // rows × 3 columns plus Jane's row with m and a masked, × 1 column.
  EXPECT_EQ(f.sources[0].compute_cells, 12u);
  EXPECT_EQ(f.sources[1].compute_cells, 2u * 3u + 1u * 1u);
}

TEST(CostFeaturesTest, ComputeCellsDeduplicateFanOut) {
  // 2000 fact rows reference 50 dimension rows: the dimension's compute
  // cells count each referenced source row once (unique rows × columns),
  // not once per target row it fans out to.
  CostFeatures f = FeaturesFor(HighRedundancySpec());
  ASSERT_EQ(f.sources.size(), 2u);
  EXPECT_EQ(f.sources[0].compute_cells,
            f.sources[0].contributed_rows * f.sources[0].cols);
  EXPECT_EQ(f.sources[1].contributed_rows, 2000u);
  EXPECT_EQ(f.sources[1].compute_cells, 50u * f.sources[1].cols);
}

TEST(MorpheusHeuristicTest, FactorizesHighTupleAndFeatureRatio) {
  CostFeatures f = FeaturesFor(HighRedundancySpec());
  MorpheusHeuristic heuristic;
  EXPECT_DOUBLE_EQ(f.TupleRatio(1), 40.0);
  EXPECT_EQ(heuristic.Decide(f), Strategy::kFactorize);
}

TEST(MorpheusHeuristicTest, MaterializesLowRatios) {
  CostFeatures f = FeaturesFor(NoRedundancySpec());
  MorpheusHeuristic heuristic;
  EXPECT_DOUBLE_EQ(f.TupleRatio(1), 1.0);
  EXPECT_EQ(heuristic.Decide(f), Strategy::kMaterialize);
}

TEST(MorpheusHeuristicTest, BlindToRedundancyMetadata) {
  // The heuristic reads only the shape ratios: zeroing out or inflating the
  // DI-metadata signals (overlap cells, duplicates, nulls) cannot change its
  // decision, while the Amalur model reacts to the same change.
  CostFeatures f = FeaturesFor(HighRedundancySpec());
  MorpheusHeuristic heuristic;
  const Strategy before = heuristic.Decide(f);
  CostFeatures perturbed = f;
  for (SourceFeatures& s : perturbed.sources) {
    s.redundant_cells = s.contributed_rows * s.cols / 2;
    s.duplicate_ratio = 0.9;
    s.null_ratio = 0.9;
  }
  EXPECT_EQ(heuristic.Decide(perturbed), before);
  AmalurCostModel model;
  EXPECT_NE(model.Estimate(perturbed).factorized_cost,
            model.Estimate(f).factorized_cost);
}

TEST(MorpheusHeuristicTest, ThresholdsAreConfigurable) {
  CostFeatures f = FeaturesFor(HighRedundancySpec());
  MorpheusHeuristic strict({/*tuple*/ 100.0, /*feature*/ 100.0});
  EXPECT_EQ(strict.Decide(f), Strategy::kMaterialize);
}

TEST(MorpheusHeuristicTest, ExplainMentionsRatios) {
  CostFeatures f = FeaturesFor(HighRedundancySpec());
  MorpheusHeuristic heuristic;
  const std::string text = heuristic.Explain(f);
  EXPECT_NE(text.find("TR="), std::string::npos);
  EXPECT_NE(text.find("factorize"), std::string::npos);
}

TEST(AmalurCostModelTest, FactorizesWhenTargetIsRedundant) {
  CostFeatures f = FeaturesFor(HighRedundancySpec());
  AmalurCostModel model;
  CostEstimate estimate = model.Estimate(f);
  EXPECT_FALSE(estimate.decided_by_logic_rule);
  EXPECT_LT(estimate.factorized_cost, estimate.materialized_cost);
  EXPECT_EQ(estimate.Decision(), Strategy::kFactorize);
}

TEST(AmalurCostModelTest, TgdPrescreenMaterializesFullTgdScenario) {
  // Example IV.1: inner join => full tgd; 1:1 join => rT ≤ rS1 + rS2.
  CostFeatures f = FeaturesFor(NoRedundancySpec());
  AmalurCostModel model;
  EXPECT_EQ(model.PruneWithTgds(f).value(), Strategy::kMaterialize);
  CostEstimate estimate = model.Estimate(f);
  EXPECT_TRUE(estimate.decided_by_logic_rule);
  EXPECT_EQ(estimate.Decision(), Strategy::kMaterialize);
}

TEST(AmalurCostModelTest, PrescreenSkipsNonFullTgds) {
  CostFeatures f = FeaturesFor(HighRedundancySpec());  // left join
  AmalurCostModel model;
  EXPECT_FALSE(model.PruneWithTgds(f).has_value());
}

TEST(AmalurCostModelTest, PrescreenSkipsRowMultiplyingInnerJoin) {
  // Inner join with fan-out: full tgd but rT·cT outgrows the sources.
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kInnerJoin;
  spec.base_rows = 1000;
  spec.other_rows = 10;  // fan-out 100
  spec.base_features = 1;
  spec.other_features = 50;
  spec.seed = 3;
  CostFeatures f = FeaturesFor(spec);
  AmalurCostModel model;
  EXPECT_FALSE(model.PruneWithTgds(f).has_value());
  EXPECT_EQ(model.Decide(f), Strategy::kFactorize);
}

TEST(AmalurCostModelTest, SeesThroughSourceDuplicates) {
  // With heavy within-source duplication, the tuple ratio collapses but the
  // effective-cell accounting still prices factorization correctly relative
  // to the inflated target.
  rel::SiloPairSpec spec = HighRedundancySpec();
  spec.other_dup_rate = 10.0;
  CostFeatures f = FeaturesFor(spec);
  AmalurCostModel model;
  // The materialized target still repeats the wide dimension rows 40x, so
  // factorization stays the cheaper plan.
  EXPECT_EQ(model.Decide(f), Strategy::kFactorize);
}

TEST(AmalurCostModelTest, AmortizationFlipsWithHorizon) {
  // A scenario near the boundary: with one iteration the join dominates and
  // factorization wins; with many iterations the per-iteration dense
  // advantage amortizes the join away.
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kLeftJoin;
  spec.base_rows = 800;
  spec.other_rows = 400;  // tuple ratio 2: mild redundancy
  spec.base_features = 4;
  spec.other_features = 4;
  spec.seed = 4;
  CostFeatures f = FeaturesFor(spec);

  AmalurCostModelOptions one_shot;
  one_shot.training_iterations = 1.0;
  AmalurCostModelOptions long_run;
  long_run.training_iterations = 10000.0;
  const CostEstimate short_est = AmalurCostModel(one_shot).Estimate(f);
  const CostEstimate long_est = AmalurCostModel(long_run).Estimate(f);
  // The one-time materialization cost matters less on the long horizon.
  const double short_gap = short_est.materialized_cost - short_est.factorized_cost;
  const double long_gap = (long_est.materialized_cost - long_est.factorized_cost) /
                          long_run.training_iterations;
  EXPECT_GT(short_gap, long_gap);
}

TEST(AmalurCostModelTest, NullsDiscountBothPaths) {
  rel::SiloPairSpec spec = HighRedundancySpec();
  CostFeatures dense_f = FeaturesFor(spec);
  spec.null_ratio = 0.5;
  CostFeatures sparse_f = FeaturesFor(spec);
  AmalurCostModel model;
  EXPECT_LT(model.Estimate(sparse_f).factorized_cost,
            model.Estimate(dense_f).factorized_cost);
}

TEST(AmalurCostModelTest, ExplainShowsBreakdown) {
  AmalurCostModel model;
  const std::string text = model.Explain(FeaturesFor(HighRedundancySpec()));
  EXPECT_NE(text.find("factorized="), std::string::npos);
  const std::string pruned = model.Explain(FeaturesFor(NoRedundancySpec()));
  EXPECT_NE(pruned.find("prescreen"), std::string::npos);
}

TEST(AmalurCostModelTest, ExactCostTieMaterializes) {
  // The documented tie-break: an exact cost tie materializes — the simpler
  // plan (no indicator bookkeeping at train time) wins when the model sees
  // no advantage either way. Pinned so the comparison can never silently
  // drift to "ties factorize".
  CostEstimate tie;
  tie.factorized_cost = 123.0;
  tie.materialized_cost = 123.0;
  EXPECT_EQ(tie.Decision(), Strategy::kMaterialize);
  // One ulp below the tie and factorization is strictly cheaper again.
  tie.factorized_cost = std::nextafter(123.0, 0.0);
  EXPECT_EQ(tie.Decision(), Strategy::kFactorize);
}

TEST(StrategyTest, Names) {
  EXPECT_STREQ(StrategyToString(Strategy::kFactorize), "factorize");
  EXPECT_STREQ(StrategyToString(Strategy::kMaterialize), "materialize");
}

}  // namespace
}  // namespace cost
}  // namespace amalur
