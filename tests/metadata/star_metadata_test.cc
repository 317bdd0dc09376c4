#include <gtest/gtest.h>

#include "common/rng.h"
#include "factorized/factorized_table.h"
#include "metadata/di_metadata.h"
#include "relational/generator.h"

namespace amalur {
namespace metadata {
namespace {

/// A three-source star: base(k1, k2, y, x0) joins dim1(k1, z0, z1) and
/// dim2(k2, w0, w1, w2), with fan-outs 4 and 2.
struct StarFixture {
  rel::Table base, dim1, dim2;
  integration::SchemaMapping mapping;
  std::vector<rel::RowMatching> matchings;
};

StarFixture MakeStar(size_t dim1_rows = 25, size_t dim2_rows = 50,
                     uint64_t seed = 5) {
  Rng rng(seed);
  StarFixture f;
  const size_t base_rows = dim1_rows * 4;  // fan-out 4 on dim1, 2 on dim2

  f.dim1 = rel::Table("dim1");
  {
    std::vector<int64_t> keys(dim1_rows);
    for (size_t i = 0; i < dim1_rows; ++i) keys[i] = static_cast<int64_t>(i);
    AMALUR_CHECK_OK(f.dim1.AddColumn(rel::Column::FromInt64s("k1", keys)));
    for (const char* name : {"z0", "z1"}) {
      std::vector<double> values(dim1_rows);
      for (double& v : values) v = rng.NextGaussian();
      AMALUR_CHECK_OK(f.dim1.AddColumn(rel::Column::FromDoubles(name, values)));
    }
  }
  f.dim2 = rel::Table("dim2");
  {
    std::vector<int64_t> keys(dim2_rows);
    for (size_t i = 0; i < dim2_rows; ++i) keys[i] = static_cast<int64_t>(i);
    AMALUR_CHECK_OK(f.dim2.AddColumn(rel::Column::FromInt64s("k2", keys)));
    for (const char* name : {"w0", "w1", "w2"}) {
      std::vector<double> values(dim2_rows);
      for (double& v : values) v = rng.NextGaussian();
      AMALUR_CHECK_OK(f.dim2.AddColumn(rel::Column::FromDoubles(name, values)));
    }
  }
  f.base = rel::Table("base");
  {
    std::vector<int64_t> k1(base_rows), k2(base_rows);
    std::vector<double> y(base_rows), x0(base_rows);
    for (size_t i = 0; i < base_rows; ++i) {
      k1[i] = static_cast<int64_t>(i % dim1_rows);
      k2[i] = static_cast<int64_t>(i % dim2_rows);
      y[i] = rng.NextGaussian();
      x0[i] = rng.NextGaussian();
    }
    AMALUR_CHECK_OK(f.base.AddColumn(rel::Column::FromInt64s("k1", k1)));
    AMALUR_CHECK_OK(f.base.AddColumn(rel::Column::FromInt64s("k2", k2)));
    AMALUR_CHECK_OK(f.base.AddColumn(rel::Column::FromDoubles("y", y)));
    AMALUR_CHECK_OK(f.base.AddColumn(rel::Column::FromDoubles("x0", x0)));
  }

  rel::Schema target =
      rel::Schema::AllDouble({"y", "x0", "z0", "z1", "w0", "w1", "w2"});
  auto mapping = integration::SchemaMapping::Create(
      rel::JoinKind::kLeftJoin,
      {integration::SchemaMapping::SourceSpec{
           "base", f.base.schema(), {{"y", "y"}, {"x0", "x0"}}},
       integration::SchemaMapping::SourceSpec{
           "dim1", f.dim1.schema(), {{"z0", "z0"}, {"z1", "z1"}}},
       integration::SchemaMapping::SourceSpec{
           "dim2", f.dim2.schema(), {{"w0", "w0"}, {"w1", "w1"}, {"w2", "w2"}}}},
      target, {{0, "k1", 1, "k1"}, {0, "k2", 2, "k2"}});
  AMALUR_CHECK(mapping.ok()) << mapping.status();
  f.mapping = std::move(mapping).ValueOrDie();

  auto m1 = rel::MatchRowsOnKeys(f.base, f.dim1, {"k1"}, {"k1"});
  auto m2 = rel::MatchRowsOnKeys(f.base, f.dim2, {"k2"}, {"k2"});
  AMALUR_CHECK(m1.ok() && m2.ok()) << "key matching failed";
  f.matchings = {std::move(m1).ValueOrDie(), std::move(m2).ValueOrDie()};
  return f;
}

/// The star's graph: depth-1 left-join edges from the base to each
/// dimension.
const std::vector<MetadataEdge> kStarEdges{{0, 1, rel::JoinKind::kLeftJoin},
                                           {0, 2, rel::JoinKind::kLeftJoin}};

TEST(StarMetadataTest, ThreeSourceShapes) {
  StarFixture f = MakeStar();
  auto md = DiMetadata::DeriveGraph(f.mapping, {&f.base, &f.dim1, &f.dim2},
                                    kStarEdges, f.matchings);
  ASSERT_TRUE(md.ok()) << md.status();
  EXPECT_EQ(md->shape(), IntegrationShape::kStar);
  EXPECT_EQ(md->num_shards(), 1u);
  EXPECT_EQ(md->join_depth(), 1u);
  EXPECT_EQ(md->num_sources(), 3u);
  EXPECT_EQ(md->target_rows(), f.base.NumRows());
  EXPECT_EQ(md->target_cols(), 7u);
  // Every dimension row is referenced (full fan-out coverage).
  EXPECT_EQ(md->source(1).indicator.ContributedRows(), f.base.NumRows());
  EXPECT_EQ(md->source(2).indicator.ContributedRows(), f.base.NumRows());
  // No column overlap between the three sources -> no redundancy.
  EXPECT_FALSE(md->source(1).redundancy.HasRedundancy());
  EXPECT_FALSE(md->source(2).redundancy.HasRedundancy());
}

TEST(StarMetadataTest, MaterializationMatchesJoinChain) {
  StarFixture f = MakeStar();
  auto md = DiMetadata::DeriveGraph(f.mapping, {&f.base, &f.dim1, &f.dim2},
                                    kStarEdges, f.matchings);
  ASSERT_TRUE(md.ok());

  // Relational reference: base ⋈ dim1 ⋈ dim2 projected onto the target.
  auto j1 =
      rel::HashJoin(f.base, f.dim1, {"k1"}, {"k1"}, rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(j1.ok());
  auto j2 = rel::HashJoin(j1->table, f.dim2, {"k2"}, {"k2"},
                          rel::JoinKind::kLeftJoin);
  ASSERT_TRUE(j2.ok());
  auto projected =
      j2->table.ProjectNames({"y", "x0", "z0", "z1", "w0", "w1", "w2"});
  ASSERT_TRUE(projected.ok());
  auto expected = projected->ToMatrix();
  ASSERT_TRUE(expected.ok());
  // Join chain preserves base-row order for matched-by-unique-key joins:
  // both sides enumerate base rows in order.
  EXPECT_TRUE(md->MaterializeTargetMatrix().ApproxEquals(*expected, 1e-12));
}

TEST(StarMetadataTest, FactorizedOpsMatchMaterializedOnThreeSources) {
  StarFixture f = MakeStar();
  auto md = DiMetadata::DeriveGraph(f.mapping, {&f.base, &f.dim1, &f.dim2},
                                    kStarEdges, f.matchings);
  ASSERT_TRUE(md.ok());
  factorized::FactorizedTable table(*md);
  la::DenseMatrix dense = table.Materialize();
  Rng rng(9);
  la::DenseMatrix x = la::DenseMatrix::RandomGaussian(table.cols(), 3, &rng);
  EXPECT_LT(table.LeftMultiply(x).MaxAbsDiff(dense.Multiply(x)), 1e-9);
  la::DenseMatrix y = la::DenseMatrix::RandomGaussian(table.rows(), 2, &rng);
  EXPECT_LT(
      table.TransposeLeftMultiply(y).MaxAbsDiff(dense.TransposeMultiply(y)),
      1e-9);
  EXPECT_LT(table.ColSums().MaxAbsDiff(dense.ColSums()), 1e-9);
}

TEST(StarMetadataTest, PartialMatchesLeaveNullPadding) {
  StarFixture f = MakeStar();
  // Remove dim2 matches for odd base rows (simulates missed ER matches).
  rel::RowMatching partial;
  for (const auto& [b, d] : f.matchings[1].matched) {
    if (b % 2 == 0) partial.matched.emplace_back(b, d);
  }
  f.matchings[1] = partial;
  auto md = DiMetadata::DeriveGraph(f.mapping, {&f.base, &f.dim1, &f.dim2},
                                    kStarEdges, f.matchings);
  ASSERT_TRUE(md.ok());
  EXPECT_EQ(md->source(2).indicator.ContributedRows(), f.base.NumRows() / 2);
  la::DenseMatrix t = md->MaterializeTargetMatrix();
  // w columns (4..6) are zero on odd rows.
  for (size_t i = 1; i < t.rows(); i += 2) {
    EXPECT_DOUBLE_EQ(t.At(i, 4), 0.0);
    EXPECT_DOUBLE_EQ(t.At(i, 6), 0.0);
  }
}

TEST(StarMetadataTest, OverlappingDimensionsGetRedundancyMasks) {
  // dim1 and dim2 both map a shared target column: later source masked.
  StarFixture f = MakeStar();
  rel::Schema target = rel::Schema::AllDouble({"y", "x0", "z0", "w0"});
  auto mapping = integration::SchemaMapping::Create(
      rel::JoinKind::kLeftJoin,
      {integration::SchemaMapping::SourceSpec{
           "base", f.base.schema(), {{"y", "y"}, {"x0", "x0"}}},
       integration::SchemaMapping::SourceSpec{
           "dim1", f.dim1.schema(), {{"z0", "z0"}}},
       // dim2's w0 maps onto dim1's z0 output column.
       integration::SchemaMapping::SourceSpec{
           "dim2", f.dim2.schema(), {{"w0", "z0"}, {"w1", "w0"}}}},
      target, {{0, "k1", 1, "k1"}, {0, "k2", 2, "k2"}});
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  auto md = DiMetadata::DeriveGraph(*mapping, {&f.base, &f.dim1, &f.dim2},
                                    kStarEdges, f.matchings);
  ASSERT_TRUE(md.ok());
  // dim2 is redundant on column z0 wherever dim1 also contributes.
  EXPECT_TRUE(md->source(2).redundancy.HasRedundancy());
  // The factorized result still matches the masked materialization.
  factorized::FactorizedTable table(*md);
  Rng rng(3);
  la::DenseMatrix x = la::DenseMatrix::RandomGaussian(table.cols(), 2, &rng);
  EXPECT_LT(table.LeftMultiply(x).MaxAbsDiff(table.Materialize().Multiply(x)),
            1e-9);
}

TEST(StarMetadataTest, Validation) {
  StarFixture f = MakeStar();
  // Wrong number of matchings.
  EXPECT_TRUE(DiMetadata::DeriveGraph(f.mapping, {&f.base, &f.dim1, &f.dim2},
                                      kStarEdges, {f.matchings[0]})
                  .status()
                  .IsInvalidArgument());
  // Non-functional matching: one base row matched twice.
  auto broken = f.matchings;
  broken[0].matched.push_back(broken[0].matched[0]);
  EXPECT_TRUE(DiMetadata::DeriveGraph(f.mapping, {&f.base, &f.dim1, &f.dim2},
                                      kStarEdges, broken)
                  .status()
                  .IsFailedPrecondition());
}

}  // namespace
}  // namespace metadata
}  // namespace amalur
