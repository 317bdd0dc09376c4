#include "ml/training_matrix.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "factorized/scenario_builder.h"

namespace amalur {
namespace ml {
namespace {

/// A left-join scenario with label at target column 0.
std::shared_ptr<const factorized::FactorizedTable> MakeTable(uint64_t seed) {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kLeftJoin;
  spec.base_rows = 50;
  spec.other_rows = 25;
  spec.base_features = 2;
  spec.other_features = 3;
  spec.match_fraction = 0.8;
  spec.seed = seed;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);
  auto metadata = factorized::DerivePairMetadata(pair);
  AMALUR_CHECK(metadata.ok()) << metadata.status();
  return std::make_shared<factorized::FactorizedTable>(
      std::move(metadata).ValueOrDie());
}

TEST(MaterializedMatrixTest, OpsMatchDense) {
  Rng rng(1);
  la::DenseMatrix d = la::DenseMatrix::RandomGaussian(6, 4, &rng);
  MaterializedMatrix m(d);
  EXPECT_EQ(m.rows(), 6u);
  EXPECT_EQ(m.cols(), 4u);
  la::DenseMatrix x = la::DenseMatrix::RandomGaussian(4, 2, &rng);
  EXPECT_TRUE(m.LeftMultiply(x).ApproxEquals(d.Multiply(x), 1e-12));
  la::DenseMatrix y = la::DenseMatrix::RandomGaussian(6, 2, &rng);
  EXPECT_TRUE(
      m.TransposeLeftMultiply(y).ApproxEquals(d.TransposeMultiply(y), 1e-12));
  la::DenseMatrix squared = d.Map([](double v) { return v * v; });
  EXPECT_TRUE(m.RowSquaredNorms().ApproxEquals(squared.RowSums(), 1e-12));
  EXPECT_TRUE(m.ColSums().ApproxEquals(d.ColSums(), 1e-12));
}

TEST(FactorizedFeaturesTest, ShapeExcludesLabel) {
  auto table = MakeTable(3);
  FactorizedFeatures features(table, 0);
  EXPECT_EQ(features.rows(), table->rows());
  EXPECT_EQ(features.cols(), table->cols() - 1);
}

TEST(FactorizedFeaturesTest, OpsMatchMaterializedFeatureSlice) {
  auto table = MakeTable(4);
  FactorizedFeatures features(table, 0);
  // Reference: dense T without column 0.
  la::DenseMatrix t = table->Materialize();
  std::vector<size_t> feature_cols;
  for (size_t j = 1; j < t.cols(); ++j) feature_cols.push_back(j);
  la::DenseMatrix f = t.SelectColumns(feature_cols);

  Rng rng(9);
  la::DenseMatrix x = la::DenseMatrix::RandomGaussian(features.cols(), 3, &rng);
  EXPECT_LT(features.LeftMultiply(x).MaxAbsDiff(f.Multiply(x)), 1e-10);
  la::DenseMatrix y = la::DenseMatrix::RandomGaussian(features.rows(), 3, &rng);
  EXPECT_LT(features.TransposeLeftMultiply(y).MaxAbsDiff(
                f.TransposeMultiply(y)),
            1e-10);
  la::DenseMatrix squared = f.Map([](double v) { return v * v; });
  EXPECT_LT(features.RowSquaredNorms().MaxAbsDiff(squared.RowSums()), 1e-9);
  EXPECT_LT(features.ColSums().MaxAbsDiff(f.ColSums()), 1e-10);
}

TEST(FactorizedFeaturesTest, LabelsMatchTargetColumn) {
  auto table = MakeTable(5);
  FactorizedFeatures features(table, 0);
  la::DenseMatrix t = table->Materialize();
  la::DenseMatrix labels = features.Labels();
  ASSERT_EQ(labels.rows(), t.rows());
  for (size_t i = 0; i < t.rows(); ++i) {
    EXPECT_DOUBLE_EQ(labels.At(i, 0), t.At(i, 0));
  }
}

TEST(FactorizedFeaturesTest, MiddleLabelColumnHandled) {
  auto table = MakeTable(7);
  const size_t label = 2;  // not the first column
  FactorizedFeatures features(table, label);
  la::DenseMatrix t = table->Materialize();
  std::vector<size_t> cols;
  for (size_t j = 0; j < t.cols(); ++j) {
    if (j != label) cols.push_back(j);
  }
  la::DenseMatrix f = t.SelectColumns(cols);
  Rng rng(3);
  la::DenseMatrix x = la::DenseMatrix::RandomGaussian(features.cols(), 2, &rng);
  EXPECT_LT(features.LeftMultiply(x).MaxAbsDiff(f.Multiply(x)), 1e-10);
  la::DenseMatrix y = la::DenseMatrix::RandomGaussian(features.rows(), 2, &rng);
  EXPECT_LT(
      features.TransposeLeftMultiply(y).MaxAbsDiff(f.TransposeMultiply(y)),
      1e-10);
}

}  // namespace
}  // namespace ml
}  // namespace amalur
