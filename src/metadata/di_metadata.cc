#include "metadata/di_metadata.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/status.h"

namespace amalur {
namespace metadata {

namespace {

/// Builds D_k, its column names and CM_k for source k of the mapping.
Status BuildColumns(const integration::SchemaMapping& mapping, size_t k,
                    const rel::Table& table, la::DenseMatrix* data,
                    std::vector<std::string>* column_names,
                    std::vector<int64_t>* cm, std::vector<size_t>* schema_cols) {
  const std::vector<int64_t> target_to_schema = mapping.TargetToSourceColumns(k);
  const std::vector<std::string> mapped = mapping.MappedColumns(k);

  // D_k layout: mapped columns in source-schema order.
  std::vector<size_t> indices;
  std::vector<int64_t> schema_to_dk(table.NumColumns(), -1);
  for (const std::string& name : mapped) {
    AMALUR_ASSIGN_OR_RETURN(size_t index, table.ColumnIndex(name));
    schema_to_dk[index] = static_cast<int64_t>(indices.size());
    indices.push_back(index);
    column_names->push_back(name);
  }
  AMALUR_ASSIGN_OR_RETURN(*data, table.ToMatrix(indices));

  cm->assign(target_to_schema.size(), -1);
  for (size_t i = 0; i < target_to_schema.size(); ++i) {
    const int64_t schema_col = target_to_schema[i];
    if (schema_col >= 0) {
      (*cm)[i] = schema_to_dk[static_cast<size_t>(schema_col)];
    }
  }
  *schema_cols = indices;
  return Status::OK();
}

/// Shared tail of every derivation: given the per-source CI vectors, builds
/// D_k, CM_k, I_k and R_k for each source and appends them to `metadata`.
/// The redundancy chain follows source order (earlier sources cover later
/// ones), so callers must list the retained/base sources first.
Status FillSources(const integration::SchemaMapping& mapping,
                   const std::vector<const rel::Table*>& tables,
                   const std::vector<std::vector<int64_t>>& ci,
                   std::vector<SourceMetadata>* sources) {
  const size_t n_sources = tables.size();
  std::vector<CompressedMapping> mappings;
  std::vector<CompressedIndicator> indicators;
  std::vector<la::DenseMatrix> data(n_sources);
  std::vector<std::vector<std::string>> names(n_sources);
  std::vector<std::vector<size_t>> schema_cols(n_sources);
  for (size_t k = 0; k < n_sources; ++k) {
    std::vector<int64_t> cm;
    AMALUR_RETURN_NOT_OK(BuildColumns(mapping, k, *tables[k], &data[k],
                                      &names[k], &cm, &schema_cols[k]));
    mappings.emplace_back(std::move(cm), data[k].cols());
    indicators.emplace_back(ci[k], data[k].rows());
  }
  for (size_t k = 0; k < n_sources; ++k) {
    SourceMetadata source{
        mapping.source(k).name,
        std::move(data[k]),
        std::move(names[k]),
        mappings[k],
        indicators[k],
        RedundancyMask::Derive(k, indicators, mappings),
        tables[k]->NullRatio(schema_cols[k]),
    };
    sources->push_back(std::move(source));
  }
  return Status::OK();
}

}  // namespace

std::vector<RowClass> SourceMetadata::RowClasses(bool ignore_redundancy) const {
  // Bucket the contributing target rows by set id: slot s holds id s − 1,
  // so the slots visit the ids in ascending order.
  const std::vector<int64_t>& ci = indicator.values();
  std::vector<RowClass> slots(
      ignore_redundancy ? 1 : redundancy.column_sets().size() + 1);
  for (size_t i = 0; i < ci.size(); ++i) {
    if (ci[i] < 0) continue;
    const int32_t set_id = ignore_redundancy ? -1 : redundancy.row_set(i);
    slots[static_cast<size_t>(set_id + 1)].target_rows.push_back(i);
  }
  // Deduplicate each class's source rows in first-seen order. `unique_of[r]`
  // is D_k row r's last assigned index; it belongs to the current class iff
  // that class's unique row at the index is r, so no reset between classes.
  std::vector<size_t> unique_of(indicator.source_rows(), 0);
  std::vector<RowClass> classes;
  for (size_t slot = 0; slot < slots.size(); ++slot) {
    RowClass& row_class = slots[slot];
    if (row_class.target_rows.empty()) continue;
    row_class.set_id = static_cast<int32_t>(slot) - 1;
    std::vector<size_t>& unique = row_class.unique_source_rows;
    row_class.target_to_unique.reserve(row_class.target_rows.size());
    for (size_t i : row_class.target_rows) {
      const size_t r = static_cast<size_t>(ci[i]);
      size_t u = unique_of[r];
      if (u >= unique.size() || unique[u] != r) {
        u = unique_of[r] = unique.size();
        unique.push_back(r);
      }
      row_class.target_to_unique.push_back(u);
    }
    classes.push_back(std::move(row_class));
  }
  return classes;
}

ColumnPairs SourceMetadata::AllowedColumns(int32_t set_id) const {
  const std::vector<size_t> none;
  const std::vector<size_t>& masked =
      set_id < 0 ? none
                 : redundancy.column_sets()[static_cast<size_t>(set_id)];
  ColumnPairs pairs;
  for (size_t c = 0; c < mapping.target_cols(); ++c) {
    const int64_t j = mapping.At(c);
    if (j < 0 || std::binary_search(masked.begin(), masked.end(), c)) continue;
    pairs.dk_cols.push_back(static_cast<size_t>(j));
    pairs.t_cols.push_back(c);
  }
  return pairs;
}

const char* IntegrationShapeToString(IntegrationShape shape) {
  switch (shape) {
    case IntegrationShape::kPairwise:
      return "pairwise";
    case IntegrationShape::kStar:
      return "star";
    case IntegrationShape::kSnowflake:
      return "snowflake";
    case IntegrationShape::kUnionOfStars:
      return "union-of-stars";
    case IntegrationShape::kConformedSnowflake:
      return "conformed-snowflake";
  }
  return "?";
}

Result<DiMetadata> DiMetadata::Derive(const integration::SchemaMapping& mapping,
                                      const std::vector<const rel::Table*>& tables,
                                      const rel::RowMatching& matching) {
  if (tables.size() != mapping.num_sources()) {
    return Status::InvalidArgument("expected ", mapping.num_sources(),
                                   " tables, got ", tables.size());
  }
  if (tables.size() != 2) {
    return Status::Unimplemented(
        "metadata derivation currently handles two-source scenarios");
  }
  const rel::Table& base = *tables[0];
  const rel::Table& other = *tables[1];
  for (const auto& [l, r] : matching.matched) {
    if (l >= base.NumRows() || r >= other.NumRows()) {
      return Status::OutOfRange("row match (", l, ",", r, ") out of range");
    }
  }

  DiMetadata metadata;
  metadata.kind_ = mapping.kind();
  metadata.target_schema_ = mapping.target_schema();
  metadata.target_cols_ = metadata.target_schema_.num_fields();

  // ---- Target row layout (Figure 4 convention).
  std::vector<int64_t> ci_base;
  std::vector<int64_t> ci_other;
  const auto push = [&](int64_t b, int64_t o) {
    ci_base.push_back(b);
    ci_other.push_back(o);
  };
  switch (mapping.kind()) {
    case rel::JoinKind::kInnerJoin:
      for (const auto& [l, r] : matching.matched) {
        push(static_cast<int64_t>(l), static_cast<int64_t>(r));
      }
      break;
    case rel::JoinKind::kLeftJoin:
      for (const auto& [l, r] : matching.matched) {
        push(static_cast<int64_t>(l), static_cast<int64_t>(r));
      }
      for (size_t l : matching.left_only) push(static_cast<int64_t>(l), -1);
      break;
    case rel::JoinKind::kFullOuterJoin:
      for (const auto& [l, r] : matching.matched) {
        push(static_cast<int64_t>(l), static_cast<int64_t>(r));
      }
      for (size_t l : matching.left_only) push(static_cast<int64_t>(l), -1);
      for (size_t r : matching.right_only) push(-1, static_cast<int64_t>(r));
      break;
    case rel::JoinKind::kUnion:
      for (size_t l = 0; l < base.NumRows(); ++l) {
        push(static_cast<int64_t>(l), -1);
      }
      for (size_t r = 0; r < other.NumRows(); ++r) {
        push(-1, static_cast<int64_t>(r));
      }
      break;
  }
  metadata.target_rows_ = ci_base.size();
  metadata.shape_ = IntegrationShape::kPairwise;
  if (mapping.kind() == rel::JoinKind::kUnion) {
    // A pairwise union is the 2-shard degenerate case: each source is its
    // own fact shard, blocks stacked base-first.
    metadata.num_shards_ = 2;
    metadata.join_depth_ = 0;
    metadata.source_shard_ = {0, 1};
    metadata.source_shards_ = {{0}, {1}};
    metadata.shard_offsets_ = {0, base.NumRows(), metadata.target_rows_};
  } else {
    metadata.num_shards_ = 1;
    metadata.join_depth_ = 1;
    metadata.source_shard_ = {0, 0};
    metadata.source_shards_ = {{0}, {0}};
    metadata.shard_offsets_ = {0, metadata.target_rows_};
  }

  // ---- Per-source metadata.
  AMALUR_RETURN_NOT_OK(
      FillSources(mapping, tables, {ci_base, ci_other}, &metadata.sources_));
  return metadata;
}

Result<DiMetadata> DiMetadata::DeriveGraph(
    const integration::SchemaMapping& mapping,
    const std::vector<const rel::Table*>& tables,
    const std::vector<MetadataEdge>& edges,
    const std::vector<rel::RowMatching>& matchings) {
  const size_t n_sources = tables.size();
  if (n_sources != mapping.num_sources()) {
    return Status::InvalidArgument("expected ", mapping.num_sources(),
                                   " tables, got ", n_sources);
  }
  if (n_sources < 2) {
    return Status::InvalidArgument("a graph scenario needs >= 2 sources");
  }
  if (matchings.size() != edges.size()) {
    return Status::InvalidArgument("expected ", edges.size(),
                                   " matchings, got ", matchings.size());
  }

  // ---- Structural validation. `parent < child` with at least one parent
  // per non-root node makes the edge set a connected DAG rooted at 0 in
  // topological order; several join parents are legal (a conformed
  // dimension), several parents of a *fact* are not, and union edges may
  // only hang off fact nodes.
  std::vector<std::vector<size_t>> parent_edges_of(n_sources);
  std::set<std::pair<size_t, size_t>> seen_pairs;
  for (size_t e = 0; e < edges.size(); ++e) {
    const MetadataEdge& edge = edges[e];
    if (edge.child >= n_sources || edge.parent >= edge.child) {
      return Status::InvalidArgument(
          "graph edge ", e, " must satisfy parent < child < ", n_sources,
          " (sources in topological order, root first)");
    }
    if (edge.kind == rel::JoinKind::kFullOuterJoin) {
      return Status::InvalidArgument(
          "graph edges are left/inner joins or unions, got ",
          rel::JoinKindToString(edge.kind), " on edge ", e);
    }
    if (!seen_pairs.insert({edge.parent, edge.child}).second) {
      return Status::InvalidArgument("duplicate graph edge ", edge.parent,
                                     " -> ", edge.child);
    }
    parent_edges_of[edge.child].push_back(e);
  }
  for (size_t k = 1; k < n_sources; ++k) {
    if (parent_edges_of[k].empty()) {
      return Status::InvalidArgument(
          "source ", k,
          " has no parent edge; integration graphs must be connected");
    }
  }

  // ---- Fact/shard assignment in edge order (identical to the historical
  // tree derivation). Facts are the root and every node reached through
  // union edges; a shard is one fact plus its dimension subgraph, stacked
  // into the target in ascending fact order.
  std::vector<uint8_t> is_fact(n_sources, 0);
  std::vector<size_t> shard_of(n_sources, 0);
  is_fact[0] = 1;
  std::vector<size_t> fact_of_shard{0};
  bool any_union = false;
  bool any_inner = false;
  for (size_t e = 0; e < edges.size(); ++e) {
    const MetadataEdge& edge = edges[e];
    if (edge.kind == rel::JoinKind::kUnion) {
      if (parent_edges_of[edge.child].size() > 1) {
        return Status::InvalidArgument(
            "source ", edge.child,
            " is a fact shard (a union-edge child) with several parent "
            "edges; only dimensions may be conformed");
      }
      if (!is_fact[edge.parent]) {
        return Status::InvalidArgument(
            "union edge ", e, " hangs off dimension source ", edge.parent,
            "; union edges stack fact shards only");
      }
      if (!matchings[e].matched.empty()) {
        return Status::InvalidArgument(
            "union edge ", e, " carries a row matching; unions match no rows");
      }
      any_union = true;
      is_fact[edge.child] = 1;
      shard_of[edge.child] = fact_of_shard.size();
      fact_of_shard.push_back(edge.child);
    } else if (edge.kind == rel::JoinKind::kInnerJoin) {
      any_inner = true;
    }
  }

  // ---- Depth, reachable-shard sets and the conformed-dimension count, in
  // child order (every parent's values are complete by then).
  std::vector<size_t> depth(n_sources, 0);
  std::vector<std::set<size_t>> shards_reaching(n_sources);
  shards_reaching[0] = {0};
  size_t max_depth = 0;
  size_t shared_dimensions = 0;
  for (size_t c = 1; c < n_sources; ++c) {
    const std::vector<size_t>& parents = parent_edges_of[c];
    if (is_fact[c]) {
      shards_reaching[c] = {shard_of[c]};
      continue;  // depth 0: a fresh shard root
    }
    for (size_t e : parents) {
      const size_t p = edges[e].parent;
      depth[c] = std::max(depth[c], depth[p] + 1);
      shards_reaching[c].insert(shards_reaching[p].begin(),
                                shards_reaching[p].end());
    }
    shard_of[c] = shard_of[edges[parents[0]].parent];
    max_depth = std::max(max_depth, depth[c]);
    if (parents.size() > 1) ++shared_dimensions;
  }

  DiMetadata metadata;
  metadata.kind_ = mapping.kind();
  metadata.target_schema_ = mapping.target_schema();
  metadata.target_cols_ = metadata.target_schema_.num_fields();
  metadata.shape_ = any_union            ? IntegrationShape::kUnionOfStars
                    : shared_dimensions > 0
                        ? IntegrationShape::kConformedSnowflake
                    : max_depth > 1 ? IntegrationShape::kSnowflake
                                    : IntegrationShape::kStar;
  metadata.num_shards_ = fact_of_shard.size();
  metadata.join_depth_ = max_depth;
  metadata.num_shared_dimensions_ = shared_dimensions;
  const rel::JoinKind expected_kind =
      any_union ? rel::JoinKind::kUnion : rel::JoinKind::kLeftJoin;
  if (mapping.kind() != expected_kind) {
    return Status::InvalidArgument(
        "graph derivation expects a ", rel::JoinKindToString(expected_kind),
        " mapping for this edge set, got ",
        rel::JoinKindToString(mapping.kind()));
  }

  // ---- Shard blocks: target rows are the fact shards stacked in order
  // (inner-join edges may drop rows below).
  std::vector<size_t> shard_offset(fact_of_shard.size() + 1, 0);
  for (size_t s = 0; s < fact_of_shard.size(); ++s) {
    shard_offset[s + 1] = shard_offset[s] + tables[fact_of_shard[s]]->NumRows();
  }
  const size_t full_rows = shard_offset.back();

  // ---- Global CI per node. Facts are identities inside their block; a
  // join child *composes* each parent's CI with the edge's functional
  // matching, so a chained dimension still resolves in one indirection —
  // the snowflake derivation. A conformed dimension merges the
  // compositions of all its parent chains into ONE indicator: chains that
  // resolve the same target row to different dimension rows contradict the
  // conformed contract and fail.
  std::vector<std::vector<int64_t>> ci(n_sources);
  for (size_t k = 0; k < n_sources; ++k) ci[k].assign(full_rows, -1);
  for (size_t k = 0; k < n_sources; ++k) {
    if (!is_fact[k]) continue;
    const size_t offset = shard_offset[shard_of[k]];
    for (size_t i = 0; i < tables[k]->NumRows(); ++i) {
      ci[k][offset + i] = static_cast<int64_t>(i);
    }
  }
  // Inner-join restriction mask, filled during composition: an inner edge
  // drops every target row of a shard that references its parent but where
  // *this edge's own chain* does not resolve the child — the relational
  // inner join's row restriction applied through the metadata. The check
  // is per edge, NOT against the merged indicator: a conformed dimension
  // reached through another parent's chain must not launder a row past an
  // inner edge whose own reference dangles.
  std::vector<uint8_t> keep;
  if (any_inner) keep.assign(full_rows, 1);
  // Conformed-chain disagreements are *recorded*, not raised inline: a row
  // an inner-join edge drops never reaches the target, so chains that only
  // disagree on dropped rows are fine. First conflict per row, by row.
  struct ChainConflict {
    size_t child = 0;
    size_t edge = 0;
    int64_t first_row = 0;
    int64_t second_row = 0;
  };
  std::map<size_t, ChainConflict> conflicts;
  for (size_t c = 1; c < n_sources; ++c) {
    for (size_t e : parent_edges_of[c]) {
      const MetadataEdge& edge = edges[e];
      if (edge.kind == rel::JoinKind::kUnion) continue;
      const size_t parent_rows = tables[edge.parent]->NumRows();
      std::vector<int64_t> parent_to_child(parent_rows, -1);
      for (const auto& [parent_row, child_row] : matchings[e].matched) {
        if (parent_row >= parent_rows ||
            child_row >= tables[edge.child]->NumRows()) {
          return Status::OutOfRange("row match out of range on graph edge ", e);
        }
        if (parent_to_child[parent_row] != -1) {
          return Status::FailedPrecondition(
              "row ", parent_row, " of source ", edge.parent,
              " matches several rows of source ", edge.child,
              "; graph derivation requires functional join matchings");
        }
        parent_to_child[parent_row] = static_cast<int64_t>(child_row);
      }
      // The parent's CI is -1 outside its reachable shards' blocks, so
      // composition only ever visits those blocks — a 50-shard union pays
      // for its own shard, not the whole target.
      const bool inner = edge.kind == rel::JoinKind::kInnerJoin;
      const std::vector<int64_t>& up = ci[edge.parent];
      for (size_t s : shards_reaching[edge.parent]) {
        for (size_t i = shard_offset[s]; i < shard_offset[s + 1]; ++i) {
          const int64_t cand =
              up[i] < 0 ? -1 : parent_to_child[static_cast<size_t>(up[i])];
          if (cand < 0) {
            if (inner) keep[i] = 0;  // this edge's chain dangles: drop
            continue;
          }
          if (ci[c][i] >= 0 && ci[c][i] != cand) {
            conflicts.emplace(i, ChainConflict{c, e, ci[c][i], cand});
            continue;  // keep the first chain's value; judged below
          }
          ci[c][i] = cand;
        }
      }
    }
  }

  // ---- Judge recorded chain conflicts now that the keep mask is final:
  // only a conflict on a row that actually reaches the target violates the
  // conformed contract.
  for (const auto& [row, conflict] : conflicts) {
    if (!keep.empty() && !keep[row]) continue;  // row dropped: harmless
    return Status::FailedPrecondition(
        "target row ", row, ": conformed dimension source ", conflict.child,
        " resolves to row ", conflict.first_row,
        " through one parent chain and row ", conflict.second_row,
        " through graph edge ", conflict.edge,
        "; conformed-dimension chains must agree");
  }

  // ---- Apply the inner restriction: compact rows, offsets and every CI.
  // Graphs without inner edges skip this entirely (bitwise-stable tree
  // fast path).
  if (any_inner) {
    size_t kept = 0;
    std::vector<size_t> new_offsets(shard_offset.size(), 0);
    std::vector<int64_t> new_index(full_rows, -1);
    for (size_t s = 0; s + 1 < shard_offset.size(); ++s) {
      for (size_t i = shard_offset[s]; i < shard_offset[s + 1]; ++i) {
        if (keep[i]) new_index[i] = static_cast<int64_t>(kept++);
      }
      new_offsets[s + 1] = kept;
    }
    if (kept != full_rows) {
      for (size_t k = 0; k < n_sources; ++k) {
        std::vector<int64_t> compacted(kept, -1);
        for (size_t i = 0; i < full_rows; ++i) {
          if (new_index[i] >= 0) {
            compacted[static_cast<size_t>(new_index[i])] = ci[k][i];
          }
        }
        ci[k] = std::move(compacted);
      }
      shard_offset = std::move(new_offsets);
    }
  }
  metadata.target_rows_ = shard_offset.back();
  metadata.source_shard_ = shard_of;
  metadata.source_shards_.reserve(n_sources);
  for (size_t k = 0; k < n_sources; ++k) {
    metadata.source_shards_.emplace_back(shards_reaching[k].begin(),
                                         shards_reaching[k].end());
  }
  metadata.shard_offsets_ = shard_offset;

  AMALUR_RETURN_NOT_OK(FillSources(mapping, tables, ci, &metadata.sources_));
  return metadata;
}

la::DenseMatrix DiMetadata::SourceContribution(size_t k) const {
  const SourceMetadata& s = source(k);
  // I_k (D_k M_kᵀ): expand columns to target layout, then route rows.
  return s.indicator.ExpandRows(s.mapping.ExpandColumns(s.data));
}

la::DenseMatrix DiMetadata::MaterializeTargetMatrix() const {
  // T = Σ_k (I_k D_k M_kᵀ) ∘ R_k, accumulated one target row at a time
  // instead of through an rT × cT contribution matrix per source. Every
  // cell still receives one addition per source (+0.0 where the source
  // contributes nothing or is masked), so the sums are bitwise those of
  // adding the masked `SourceContribution` matrices.
  la::DenseMatrix target(target_rows_, target_cols_);
  std::vector<double> row(target_cols_);
  for (const SourceMetadata& source : sources_) {
    for (size_t i = 0; i < target_rows_; ++i) {
      std::fill(row.begin(), row.end(), 0.0);
      const int64_t j = source.indicator.At(i);
      if (j >= 0) {
        const double* d_row = source.data.RowPtr(static_cast<size_t>(j));
        for (size_t c = 0; c < target_cols_; ++c) {
          const int64_t d = source.mapping.At(c);
          if (d >= 0) row[c] = d_row[d];
        }
        const int32_t set = source.redundancy.row_set(i);
        if (set >= 0) {
          for (size_t c :
               source.redundancy.column_sets()[static_cast<size_t>(set)]) {
            row[c] = 0.0;
          }
        }
      }
      double* t_row = target.RowPtr(i);
      for (size_t c = 0; c < target_cols_; ++c) t_row[c] += row[c];
    }
  }
  return target;
}

double DiMetadata::TupleRatio(size_t k) const {
  const SourceMetadata& s = source(k);
  return s.data.rows() == 0
             ? 0.0
             : static_cast<double>(target_rows_) /
                   static_cast<double>(s.data.rows());
}

double DiMetadata::FeatureRatio(size_t k) const {
  const SourceMetadata& s = source(k);
  return s.data.cols() == 0
             ? 0.0
             : static_cast<double>(target_cols_) /
                   static_cast<double>(s.data.cols());
}

std::string DiMetadata::ToString() const {
  std::ostringstream out;
  out << "DiMetadata[" << rel::JoinKindToString(kind_) << ", "
      << IntegrationShapeToString(shape_) << ", T " << target_rows_ << "x"
      << target_cols_ << "]\n";
  for (size_t k = 0; k < sources_.size(); ++k) {
    const SourceMetadata& s = sources_[k];
    out << "  " << s.name << ": D " << s.data.rows() << "x" << s.data.cols()
        << ", " << s.mapping.ToString() << ", TR=" << TupleRatio(k)
        << ", FR=" << FeatureRatio(k) << ", null=" << s.null_ratio << "\n";
  }
  return out.str();
}

}  // namespace metadata
}  // namespace amalur
