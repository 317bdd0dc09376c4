#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metadata/di_metadata.h"
#include "relational/join.h"

/// \file cost_features.h
/// The cost-model feature vector extracted from DI metadata (§IV.B: "among
/// silos there are parameters relevant for the redundancy, source
/// description, source correspondences"). Everything both estimators need is
/// here, so heuristics and the full model compare apples to apples.

namespace amalur {
namespace cost {

/// Which execution strategy to use for model training over silos.
enum class Strategy : int8_t {
  kFactorize = 0,
  kMaterialize = 1,
};

const char* StrategyToString(Strategy strategy);

/// Per-source statistics.
struct SourceFeatures {
  size_t rows = 0;            // rS_k (of D_k)
  size_t cols = 0;            // cS_k (mapped columns)
  size_t contributed_rows = 0;  // target rows with CI_k != -1
  size_t redundant_cells = 0;   // zeros of R_k
  /// Multiply-add cells of one factorized pass over this source:
  /// Σ over redundancy row classes of (unique source rows × allowed
  /// columns). Join fan-out is deduplicated — the quantity the factorized
  /// kernels actually touch.
  size_t compute_cells = 0;
  double null_ratio = 0.0;

  /// Cells this source actually contributes to the target after masking
  /// (target-level, fan-out NOT deduplicated — the materialized view).
  size_t EffectiveCells() const {
    return contributed_rows * cols - redundant_cells;
  }
};

/// The full feature vector for one integration scenario.
struct CostFeatures {
  rel::JoinKind kind = rel::JoinKind::kInnerJoin;
  /// Graph shape of the scenario (pairwise / star / snowflake /
  /// union-of-stars) — the structural input behind the per-shape estimates.
  metadata::IntegrationShape shape = metadata::IntegrationShape::kPairwise;
  /// Horizontally stacked fact shards (1 unless union-of-stars).
  size_t num_shards = 1;
  /// Longest fact-to-leaf key-join chain (>= 2 for snowflakes).
  size_t join_depth = 1;
  /// Conformed (shared) dimensions: sources referenced by several join
  /// parents. Non-zero for conformed snowflakes and for union-of-stars
  /// graphs whose shards share a dimension silo.
  size_t shared_dimensions = 0;
  size_t target_rows = 0;
  size_t target_cols = 0;
  std::vector<SourceFeatures> sources;
  /// Every tgd of the scenario's mapping is full (Example IV.1 precondition);
  /// false when unknown.
  bool all_tgds_full = false;

  /// Extracts features from derived metadata. `all_tgds_full` is taken from
  /// the scenario kind when no mapping is supplied (inner join and union of
  /// fully mapped sources are the full-tgd relationships).
  static CostFeatures FromMetadata(const metadata::DiMetadata& metadata);

  /// Morpheus's tuple ratio for source k: rT / rS_k.
  double TupleRatio(size_t k) const;
  /// Morpheus's feature ratio for source k relative to the base:
  /// cS_k / cS_0.
  double FeatureRatio(size_t k) const;

  /// Total source cells Σ_k rS_k·cS_k (the factorized working set).
  size_t TotalSourceCells() const;
  /// Target cells rT·cT (the materialized working set).
  size_t TargetCells() const { return target_rows * target_cols; }

  std::string ToString() const;
};

}  // namespace cost
}  // namespace amalur
