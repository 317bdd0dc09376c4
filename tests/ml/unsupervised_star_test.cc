// Unsupervised workloads (k-means, GNMF) over an n-source star scenario:
// the factorized backend must reproduce the materialized results bit-for-
// bit-comparable across more than two silos — the full generality of the
// paper's Definition III.1-III.4 notation (k ∈ [1, n]).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "factorized/factorized_table.h"
#include "metadata/di_metadata.h"
#include "ml/gnmf.h"
#include "ml/kmeans.h"
#include "ml/training_matrix.h"
#include "relational/join.h"

namespace amalur {
namespace ml {
namespace {

/// Base(k1, k2, a) + dim1(k1, b0, b1) + dim2(k2, c0), fan-outs 3 and 6.
factorized::FactorizedTable MakeStarTable(uint64_t seed) {
  Rng rng(seed);
  const size_t dim1_rows = 20, dim2_rows = 10, base_rows = 60;
  auto make_dim = [&rng](const std::string& name, const std::string& key,
                         size_t rows, const std::vector<std::string>& cols) {
    rel::Table t(name);
    std::vector<int64_t> keys(rows);
    for (size_t i = 0; i < rows; ++i) keys[i] = static_cast<int64_t>(i);
    AMALUR_CHECK_OK(t.AddColumn(rel::Column::FromInt64s(key, keys)));
    for (const std::string& c : cols) {
      std::vector<double> values(rows);
      for (double& v : values) v = rng.NextDouble(0.0, 2.0);  // non-negative
      AMALUR_CHECK_OK(t.AddColumn(rel::Column::FromDoubles(c, values)));
    }
    return t;
  };
  rel::Table dim1 = make_dim("dim1", "k1", dim1_rows, {"b0", "b1"});
  rel::Table dim2 = make_dim("dim2", "k2", dim2_rows, {"c0"});
  rel::Table base("base");
  {
    std::vector<int64_t> k1(base_rows), k2(base_rows);
    std::vector<double> a(base_rows);
    for (size_t i = 0; i < base_rows; ++i) {
      k1[i] = static_cast<int64_t>(i % dim1_rows);
      k2[i] = static_cast<int64_t>(i % dim2_rows);
      a[i] = rng.NextDouble(0.0, 2.0);
    }
    AMALUR_CHECK_OK(base.AddColumn(rel::Column::FromInt64s("k1", k1)));
    AMALUR_CHECK_OK(base.AddColumn(rel::Column::FromInt64s("k2", k2)));
    AMALUR_CHECK_OK(base.AddColumn(rel::Column::FromDoubles("a", a)));
  }

  auto mapping = integration::SchemaMapping::Create(
      rel::JoinKind::kLeftJoin,
      {integration::SchemaMapping::SourceSpec{"base", base.schema(),
                                              {{"a", "a"}}},
       integration::SchemaMapping::SourceSpec{"dim1", dim1.schema(),
                                              {{"b0", "b0"}, {"b1", "b1"}}},
       integration::SchemaMapping::SourceSpec{"dim2", dim2.schema(),
                                              {{"c0", "c0"}}}},
      rel::Schema::AllDouble({"a", "b0", "b1", "c0"}),
      {{0, "k1", 1, "k1"}, {0, "k2", 2, "k2"}});
  AMALUR_CHECK(mapping.ok()) << mapping.status();
  auto m1 = rel::MatchRowsOnKeys(base, dim1, {"k1"}, {"k1"});
  auto m2 = rel::MatchRowsOnKeys(base, dim2, {"k2"}, {"k2"});
  AMALUR_CHECK(m1.ok() && m2.ok()) << "matching";
  auto md = metadata::DiMetadata::DeriveGraph(
      *mapping, {&base, &dim1, &dim2},
      {{0, 1, rel::JoinKind::kLeftJoin}, {0, 2, rel::JoinKind::kLeftJoin}},
      {*m1, *m2});
  AMALUR_CHECK(md.ok()) << md.status();
  return factorized::FactorizedTable(std::move(*md));
}

TEST(UnsupervisedStarTest, KMeansMatchesMaterializedAcrossThreeSilos) {
  factorized::FactorizedTable table = MakeStarTable(21);
  auto shared =
      std::make_shared<factorized::FactorizedTable>(table);
  FactorizedFeatures fact(shared, FactorizedFeatures::kNoLabel);
  MaterializedMatrix mat(table.Materialize());

  KMeansOptions options;
  options.clusters = 4;
  options.iterations = 12;
  KMeansModel from_fact = TrainKMeans(fact, options);
  KMeansModel from_mat = TrainKMeans(mat, options);
  EXPECT_EQ(from_fact.assignments, from_mat.assignments);
  EXPECT_LT(from_fact.centroids.MaxAbsDiff(from_mat.centroids), 1e-9);
}

TEST(UnsupervisedStarTest, GnmfMatchesMaterializedAcrossThreeSilos) {
  factorized::FactorizedTable table = MakeStarTable(22);
  auto shared =
      std::make_shared<factorized::FactorizedTable>(table);
  FactorizedFeatures fact(shared, FactorizedFeatures::kNoLabel);
  MaterializedMatrix mat(table.Materialize());

  GnmfOptions options;
  options.rank = 2;
  options.iterations = 10;
  GnmfModel from_fact = TrainGnmf(fact, options);
  GnmfModel from_mat = TrainGnmf(mat, options);
  ASSERT_EQ(from_fact.loss_history.size(), from_mat.loss_history.size());
  for (size_t i = 0; i < from_fact.loss_history.size(); ++i) {
    EXPECT_NEAR(from_fact.loss_history[i], from_mat.loss_history[i],
                1e-7 * (1.0 + from_mat.loss_history[i]));
  }
  EXPECT_LT(from_fact.w.MaxAbsDiff(from_mat.w), 1e-7);
}

TEST(UnsupervisedStarTest, GnmfReconstructsLowRankStarTarget) {
  // The star target is genuinely low-rank-ish (dimension features repeat
  // with fan-out); GNMF should fit it far better than a constant baseline.
  factorized::FactorizedTable table = MakeStarTable(23);
  auto shared = std::make_shared<factorized::FactorizedTable>(table);
  FactorizedFeatures fact(shared, FactorizedFeatures::kNoLabel);
  GnmfOptions options;
  options.rank = 4;
  options.iterations = 60;
  GnmfModel model = TrainGnmf(fact, options);
  EXPECT_LT(model.loss_history.back(), 0.2 * model.loss_history.front());
}

}  // namespace
}  // namespace ml
}  // namespace amalur
