#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "integration/schema_mapping.h"
#include "metadata/indicator_matrix.h"
#include "metadata/mapping_matrix.h"
#include "metadata/redundancy_matrix.h"
#include "relational/join.h"
#include "relational/table.h"

/// \file di_metadata.h
/// The "tale of three matrices" (§III): for one integration scenario, the
/// per-source processed data matrix `D_k`, compressed mapping `CM_k`,
/// compressed indicator `CI_k` and redundancy mask `R_k`, derived from a
/// schema mapping and a row matching (entity-resolution output).
///
/// Target row ordering follows Figure 4: matched rows first (in match order),
/// then base-only rows, then other-only rows (when the dataset relationship
/// keeps them). This is also the ordering the relational materializer emits,
/// so matrix-level and table-level materialization agree row by row.

namespace amalur {
namespace metadata {

/// Structural shape of an integration scenario's source graph. Pairwise is
/// the two-source form of §III; star/snowflake/union-of-stars are the n-ary
/// generalizations an `IntegrationSpec` edge list describes: a star joins
/// one fact table to depth-1 dimensions, a snowflake chains dimensions of
/// dimensions, and a union-of-stars stacks horizontally partitioned fact
/// shards (each with its own dimension subtree) into one target. A
/// *conformed snowflake* is a snowflake whose join edges form a DAG rather
/// than a tree: at least one dimension (a warehouse "conformed dimension" —
/// think one `date` or `customer` table) is referenced by several parents,
/// yet appears exactly once in the target schema. Union-of-stars graphs may
/// also share a dimension between shards; they keep the union-of-stars
/// shape and report the shared count via `num_shared_dimensions()`.
enum class IntegrationShape : int8_t {
  kPairwise = 0,
  kStar = 1,
  kSnowflake = 2,
  kUnionOfStars = 3,
  kConformedSnowflake = 4,
};

const char* IntegrationShapeToString(IntegrationShape shape);

/// One edge of an integration graph over the `tables` of `DeriveGraph`,
/// by source index. `kLeftJoin` edges join a retained parent to a child
/// dimension; `kInnerJoin` edges do the same but additionally *restrict*
/// the target row set to rows where the child is present; `kUnion` edges
/// stack a sibling fact shard under the root. Several join edges may share
/// one child — a conformed dimension.
struct MetadataEdge {
  size_t parent = 0;
  size_t child = 0;
  rel::JoinKind kind = rel::JoinKind::kLeftJoin;
};

/// One redundancy row class of a source: the contributing target rows that
/// share one redundancy set id, and therefore one set of allowed columns.
/// The factorized rewrite computes once per distinct source row of a class
/// and expands through the indicator.
struct RowClass {
  /// Redundancy set id of the class (−1 = rows with nothing masked).
  int32_t set_id = -1;
  /// Distinct D_k rows the class references, in first-seen order.
  std::vector<size_t> unique_source_rows;
  /// Target rows of the class, ascending.
  std::vector<size_t> target_rows;
  /// Index into `unique_source_rows`, parallel to `target_rows`.
  std::vector<size_t> target_to_unique;
};

/// Parallel (D_k column, target column) pairs a row class may contribute.
struct ColumnPairs {
  std::vector<size_t> dk_cols;
  std::vector<size_t> t_cols;
};

/// Everything the factorized runtime needs to know about one source.
struct SourceMetadata {
  std::string name;
  /// D_k: the source's mapped numeric columns (NULL -> 0), rS_k × cS_k.
  la::DenseMatrix data;
  /// Column names of D_k, in order.
  std::vector<std::string> column_names;
  CompressedMapping mapping;
  CompressedIndicator indicator;
  RedundancyMask redundancy;
  /// NULL fraction over the mapped columns (cost-model feature).
  double null_ratio = 0.0;

  /// The source's row classes, one per redundancy set id in use, ascending
  /// (−1 first). With `ignore_redundancy` every contributing target row
  /// falls into the single −1 class (the Morpheus baseline's view). Derived
  /// on demand, not stored: metadata is copied by value.
  std::vector<RowClass> RowClasses(bool ignore_redundancy = false) const;

  /// The mapped (D_k column, target column) pairs in ascending target-column
  /// order, minus the columns redundancy set `set_id` masks (−1 = none).
  ColumnPairs AllowedColumns(int32_t set_id) const;
};

/// Derived DI metadata for a full integration scenario.
class DiMetadata {
 public:
  /// Empty metadata (no sources); fill via `Derive`.
  DiMetadata() = default;

  /// Derives metadata for a two-source scenario. `matching` is the row
  /// matching between `tables[0]` (base) and `tables[1]` — from entity
  /// resolution or key equality. For `kUnion` the matching is ignored.
  static Result<DiMetadata> Derive(const integration::SchemaMapping& mapping,
                                   const std::vector<const rel::Table*>& tables,
                                   const rel::RowMatching& matching);

  /// Derives metadata for a general integration *graph*: a DAG of sources
  /// rooted at `tables[0]` whose edges are joins (parent retained, child
  /// dimension; `kLeftJoin` keeps unmatched parent rows, `kInnerJoin` drops
  /// them) or unions (sibling fact shards). A *star* (left joins from one
  /// base/fact table to depth-1 dimensions) is the simplest graph: each
  /// dimension's indicator is its functional matching, and the target rows
  /// are the base rows in order. Deeper graphs add these derivations:
  ///
  ///  * **Snowflake** (dimension-of-dimension chains): a sub-dimension's
  ///    indicator is the *composition* of the matchings along its chain —
  ///    CI_sub[i] = m_dim→sub[ CI_dim[i] ] — so the factorized runtime sees
  ///    one fan-out per silo, however deep the chain.
  ///  * **Conformed dimensions** (a dimension with several join-edge
  ///    parents): each parent chain composes independently and the results
  ///    merge into ONE indicator — the dimension's columns appear once in
  ///    the target schema and its redundancy is counted once. Chains that
  ///    resolve a target row to *different* dimension rows contradict the
  ///    conformed contract and fail with `kFailedPrecondition`.
  ///  * **Inner-join edges**: every target row of a shard that references
  ///    the edge's parent but where *that edge's own* composed chain does
  ///    not resolve the child is dropped from the target — the relational
  ///    inner join's row restriction, applied through the metadata. The
  ///    check is per edge: a conformed dimension resolved through a
  ///    different parent's chain does not rescue a row whose inner-edge
  ///    reference dangles.
  ///  * **Union-of-stars** (`kUnion` edges between fact shards): target rows
  ///    are the shard blocks stacked in source order; each shard's sources
  ///    get block-local indicators (-1 outside their shard), which makes
  ///    cross-shard redundancy vanish structurally. A dimension may be
  ///    shared between shards (its indicator is then defined in several
  ///    blocks).
  ///
  /// Requirements: every edge satisfies `parent < child` (sources in
  /// topological order, root first), every non-root source has >= 1 parent
  /// edge, fact shards (the root, union-edge children) have at most one,
  /// `matchings[e]` relates `tables[edges[e].parent]` rows to
  /// `tables[edges[e].child]` rows and must be functional for join edges
  /// and empty for union edges, and `mapping.kind()` is `kUnion` when any
  /// union edge exists, `kLeftJoin` otherwise.
  static Result<DiMetadata> DeriveGraph(
      const integration::SchemaMapping& mapping,
      const std::vector<const rel::Table*>& tables,
      const std::vector<MetadataEdge>& edges,
      const std::vector<rel::RowMatching>& matchings);

  size_t num_sources() const { return sources_.size(); }
  const SourceMetadata& source(size_t k) const {
    AMALUR_CHECK_LT(k, sources_.size()) << "source index";
    return sources_[k];
  }
  size_t target_rows() const { return target_rows_; }
  size_t target_cols() const { return target_cols_; }
  const rel::Schema& target_schema() const { return target_schema_; }
  rel::JoinKind kind() const { return kind_; }
  /// Structural shape of the scenario's source graph (cost-model input and
  /// `Explain` payload).
  IntegrationShape shape() const { return shape_; }
  /// Number of horizontally stacked fact shards (1 unless union-of-stars).
  size_t num_shards() const { return num_shards_; }
  /// Shards with a non-empty target-row block — the ones that can actually
  /// participate in per-shard execution (an empty fact silo, or a shard
  /// fully dropped by an inner-join edge, contributes no rows). The single
  /// source of truth behind `AlignForHfl`'s participant set and the
  /// optimizer's FedAvg explanation.
  size_t num_active_shards() const {
    size_t active = 0;
    for (size_t s = 0; s + 1 < shard_offsets_.size(); ++s) {
      if (shard_offsets_[s] < shard_offsets_[s + 1]) ++active;
    }
    return active;
  }
  /// Longest key-join chain from a fact to a leaf dimension (1 for stars
  /// and pairwise joins, >= 2 for snowflakes, 0 for pure unions).
  size_t join_depth() const { return join_depth_; }
  /// Number of conformed (shared) dimensions: sources referenced by several
  /// join-edge parents (0 for trees).
  size_t num_shared_dimensions() const { return num_shared_dimensions_; }

  /// Whether the scenario is horizontally partitioned (a pairwise union or
  /// a union-of-stars). The single source of truth for the federated
  /// protocol choice: horizontal scenarios split by fact shard (FedAvg),
  /// vertical ones by silo (n-ary vertical FLR) — optimizer explanations
  /// and executor dispatch must agree through this predicate.
  bool IsHorizontallyPartitioned() const {
    return shape_ == IntegrationShape::kUnionOfStars ||
           kind_ == rel::JoinKind::kUnion;
  }

  /// Shard source k belongs to (a shard = one fact plus its dimension
  /// subtree; always 0 for join-only scenarios). A conformed dimension
  /// referenced from several shards reports the *first* referencing shard;
  /// consumers that assemble per-shard data (e.g. `AlignForHfl`) must scan
  /// each shard's row block through the indicator instead of trusting this
  /// single id. The horizontal federated runtime groups silos into FedAvg
  /// participants with this.
  size_t shard_of(size_t k) const {
    AMALUR_CHECK_LT(k, source_shard_.size()) << "source index";
    return source_shard_[k];
  }
  /// Every shard whose row block source k's indicator can reach, ascending.
  /// `{shard_of(k)}` for all tree-shaped graphs; a conformed dimension
  /// referenced from several shards lists each. Consumers assembling
  /// per-shard data iterate exactly these blocks (CI_k is -1 everywhere
  /// else).
  const std::vector<size_t>& shards_reaching(size_t k) const {
    AMALUR_CHECK_LT(k, source_shards_.size()) << "source index";
    return source_shards_[k];
  }
  /// Target-row block of shard s: rows [ShardRowBegin(s), ShardRowEnd(s)).
  /// Shard blocks are contiguous and stacked in shard order.
  size_t ShardRowBegin(size_t s) const {
    AMALUR_CHECK_LT(s + 1, shard_offsets_.size()) << "shard index";
    return shard_offsets_[s];
  }
  size_t ShardRowEnd(size_t s) const {
    AMALUR_CHECK_LT(s + 1, shard_offsets_.size()) << "shard index";
    return shard_offsets_[s + 1];
  }

  /// T_k = I_k D_k M_kᵀ — the source's (unmasked) contribution (Figure 4c).
  la::DenseMatrix SourceContribution(size_t k) const;

  /// T = Σ_k (T_k ∘ R_k): the materialized target in matrix form, absent
  /// cells as 0 (the paper's convention).
  la::DenseMatrix MaterializeTargetMatrix() const;

  /// Tuple ratio rT / rS_k and feature ratio cT / cS_k of source k — the
  /// Morpheus heuristic features (§IV.B).
  double TupleRatio(size_t k) const;
  double FeatureRatio(size_t k) const;

  std::string ToString() const;

 private:
  std::vector<SourceMetadata> sources_;
  size_t target_rows_ = 0;
  size_t target_cols_ = 0;
  rel::Schema target_schema_;
  rel::JoinKind kind_ = rel::JoinKind::kInnerJoin;
  IntegrationShape shape_ = IntegrationShape::kPairwise;
  size_t num_shards_ = 1;
  size_t join_depth_ = 1;
  size_t num_shared_dimensions_ = 0;
  /// Per-source shard id (parallel to `sources_`).
  std::vector<size_t> source_shard_;
  /// Per-source reachable shards, ascending (parallel to `sources_`;
  /// singleton except for cross-shard conformed dimensions).
  std::vector<std::vector<size_t>> source_shards_;
  /// Shard target-row block boundaries (size num_shards_ + 1).
  std::vector<size_t> shard_offsets_;
};

}  // namespace metadata
}  // namespace amalur
