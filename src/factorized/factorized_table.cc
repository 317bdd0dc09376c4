#include "factorized/factorized_table.h"

#include "common/parallel_for.h"

namespace amalur {
namespace factorized {

namespace {
// ParallelFor grains for the rewrite kernels. Plans are processed serially
// (different plans may touch the same target rows/columns); within a plan
// every parallel loop partitions disjoint output, so results are
// bitwise-equal to the serial kernels at any thread count.
constexpr size_t kUniqueGrain = 32;  // unique-source-row loops
constexpr size_t kExpandGrain = 512; // target-row fan-out loops
constexpr size_t kColumnGrain = 8;   // target-column band loops
}  // namespace

FactorizedTable::FactorizedTable(metadata::DiMetadata metadata)
    : metadata_(std::move(metadata)) {
  BuildPlans(/*ignore_redundancy=*/false);
}

void FactorizedTable::BuildPlans(bool ignore_redundancy) {
  plans_.clear();
  plans_.resize(metadata_.num_sources());
  for (size_t k = 0; k < metadata_.num_sources(); ++k) {
    const metadata::SourceMetadata& source = metadata_.source(k);
    for (metadata::RowClass& row_class :
         source.RowClasses(ignore_redundancy)) {
      metadata::ColumnPairs allowed = source.AllowedColumns(row_class.set_id);
      if (allowed.dk_cols.empty()) continue;  // every column masked
      RowClassPlan plan{std::move(row_class), std::move(allowed), {}, {}};

      // Reverse fan-out index (unique row -> its target rows, class order).
      plan.fanout_offsets.assign(plan.unique_source_rows.size() + 1, 0);
      for (size_t u : plan.target_to_unique) ++plan.fanout_offsets[u + 1];
      for (size_t u = 0; u < plan.unique_source_rows.size(); ++u) {
        plan.fanout_offsets[u + 1] += plan.fanout_offsets[u];
      }
      plan.fanout_targets.resize(plan.target_rows.size());
      std::vector<size_t> cursor(plan.fanout_offsets.begin(),
                                 plan.fanout_offsets.end() - 1);
      for (size_t r = 0; r < plan.target_rows.size(); ++r) {
        plan.fanout_targets[cursor[plan.target_to_unique[r]]++] =
            plan.target_rows[r];
      }
      plans_[k].push_back(std::move(plan));
    }
  }
}

la::DenseMatrix FactorizedTable::LeftMultiply(const la::DenseMatrix& x) const {
  AMALUR_CHECK_EQ(x.rows(), cols()) << "LMM: X must have cT rows";
  const size_t n = x.cols();
  la::DenseMatrix out(rows(), n);
  for (size_t k = 0; k < metadata_.num_sources(); ++k) {
    const la::DenseMatrix& dk = metadata_.source(k).data;
    for (const RowClassPlan& plan : plans_[k]) {
      // Compute once per unique source row: U = D_k[rows, cols] · X[t_cols].
      // Parallel over unique rows — each chunk writes disjoint `unique` rows.
      la::DenseMatrix unique(plan.unique_source_rows.size(), n);
      common::ParallelFor(
          0, plan.unique_source_rows.size(), kUniqueGrain,
          [&](size_t u_begin, size_t u_end) {
            for (size_t u = u_begin; u < u_end; ++u) {
              const double* d_row = dk.RowPtr(plan.unique_source_rows[u]);
              double* u_row = unique.RowPtr(u);
              for (size_t p = 0; p < plan.dk_cols.size(); ++p) {
                const double v = d_row[plan.dk_cols[p]];
                if (v == 0.0) continue;
                const double* x_row = x.RowPtr(plan.t_cols[p]);
                for (size_t c = 0; c < n; ++c) u_row[c] += v * x_row[c];
              }
            }
          });
      // Expand through the indicator (fan-out rows share one computation).
      // A class's target rows are distinct, so chunks write disjoint rows.
      common::ParallelFor(
          0, plan.target_rows.size(), kExpandGrain,
          [&](size_t r_begin, size_t r_end) {
            for (size_t r = r_begin; r < r_end; ++r) {
              const double* u_row = unique.RowPtr(plan.target_to_unique[r]);
              double* out_row = out.RowPtr(plan.target_rows[r]);
              for (size_t c = 0; c < n; ++c) out_row[c] += u_row[c];
            }
          });
    }
  }
  return out;
}

la::DenseMatrix FactorizedTable::TransposeLeftMultiply(
    const la::DenseMatrix& x) const {
  AMALUR_CHECK_EQ(x.rows(), rows()) << "TᵀX: X must have rT rows";
  const size_t n = x.cols();
  la::DenseMatrix out(cols(), n);
  for (size_t k = 0; k < metadata_.num_sources(); ++k) {
    const la::DenseMatrix& dk = metadata_.source(k).data;
    for (const RowClassPlan& plan : plans_[k]) {
      // Reduce X over fan-out first: one accumulated row per unique source
      // row (the Iᵀ step), then the D_kᵀ multiply-add pass. The reduce runs
      // parallel over unique rows via the reverse fan-out index (disjoint
      // `reduced` rows, same ascending accumulation order as the serial
      // walk); the multiply-add runs parallel over target-column bands
      // (disjoint `out` rows, u ascending per element in both orders).
      la::DenseMatrix reduced(plan.unique_source_rows.size(), n);
      common::ParallelFor(
          0, plan.unique_source_rows.size(), kUniqueGrain,
          [&](size_t u_begin, size_t u_end) {
            for (size_t u = u_begin; u < u_end; ++u) {
              double* acc = reduced.RowPtr(u);
              for (size_t q = plan.fanout_offsets[u];
                   q < plan.fanout_offsets[u + 1]; ++q) {
                const double* x_row = x.RowPtr(plan.fanout_targets[q]);
                for (size_t c = 0; c < n; ++c) acc[c] += x_row[c];
              }
            }
          });
      common::ParallelFor(
          0, plan.dk_cols.size(), kColumnGrain,
          [&](size_t p_begin, size_t p_end) {
            for (size_t u = 0; u < plan.unique_source_rows.size(); ++u) {
              const double* d_row = dk.RowPtr(plan.unique_source_rows[u]);
              const double* acc = reduced.RowPtr(u);
              for (size_t p = p_begin; p < p_end; ++p) {
                const double v = d_row[plan.dk_cols[p]];
                if (v == 0.0) continue;
                double* out_row = out.RowPtr(plan.t_cols[p]);
                for (size_t c = 0; c < n; ++c) out_row[c] += v * acc[c];
              }
            }
          });
    }
  }
  return out;
}

la::DenseMatrix FactorizedTable::ColSums() const {
  la::DenseMatrix out(1, cols());
  for (size_t k = 0; k < metadata_.num_sources(); ++k) {
    const la::DenseMatrix& dk = metadata_.source(k).data;
    for (const RowClassPlan& plan : plans_[k]) {
      // Fan-out multiplies each unique source row's contribution; the
      // multiplicity comes straight off the reverse fan-out index. Parallel
      // over target-column bands (disjoint `out` cells within a plan).
      common::ParallelFor(
          0, plan.dk_cols.size(), kColumnGrain,
          [&](size_t p_begin, size_t p_end) {
            for (size_t u = 0; u < plan.unique_source_rows.size(); ++u) {
              const double* d_row = dk.RowPtr(plan.unique_source_rows[u]);
              const double count = static_cast<double>(
                  plan.fanout_offsets[u + 1] - plan.fanout_offsets[u]);
              for (size_t p = p_begin; p < p_end; ++p) {
                out.At(0, plan.t_cols[p]) += count * d_row[plan.dk_cols[p]];
              }
            }
          });
    }
  }
  return out;
}

la::DenseMatrix FactorizedTable::RowSquaredNorms() const {
  la::DenseMatrix out(rows(), 1);
  for (size_t k = 0; k < metadata_.num_sources(); ++k) {
    const la::DenseMatrix& dk = metadata_.source(k).data;
    for (const RowClassPlan& plan : plans_[k]) {
      std::vector<double> sums(plan.unique_source_rows.size(), 0.0);
      common::ParallelFor(
          0, plan.unique_source_rows.size(), kUniqueGrain,
          [&](size_t u_begin, size_t u_end) {
            for (size_t u = u_begin; u < u_end; ++u) {
              const double* d_row = dk.RowPtr(plan.unique_source_rows[u]);
              for (size_t j : plan.dk_cols) sums[u] += d_row[j] * d_row[j];
            }
          });
      common::ParallelFor(
          0, plan.target_rows.size(), kExpandGrain,
          [&](size_t r_begin, size_t r_end) {
            for (size_t r = r_begin; r < r_end; ++r) {
              out.At(plan.target_rows[r], 0) += sums[plan.target_to_unique[r]];
            }
          });
    }
  }
  return out;
}

PartialScores PartialScores::Extract(const metadata::DiMetadata& metadata,
                                     const la::DenseMatrix& target_weights) {
  AMALUR_CHECK(target_weights.rows() == metadata.target_cols() &&
               target_weights.cols() == 1)
      << "partial scores: weights must be cT x 1";
  PartialScores out;
  out.metadata_ = &metadata;
  out.by_set_.resize(metadata.num_sources());
  for (size_t k = 0; k < metadata.num_sources(); ++k) {
    const metadata::SourceMetadata& source = metadata.source(k);
    const la::DenseMatrix& dk = source.data;

    // One partial vector per masked-column set (index 0 = the all-ones
    // "nothing redundant" rows), covering every D_k row. The interned set
    // family is small, so an unreferenced (set, row) combination costs
    // little and keeps lookups branch-free. The allowed pairs come from the
    // same construction (and therefore the same accumulation order) as
    // BuildPlans, which is what makes ScoreRow bitwise-equal to the LMM.
    const size_t num_sets = source.redundancy.column_sets().size();
    out.by_set_[k].resize(num_sets + 1);
    for (size_t si = 0; si <= num_sets; ++si) {
      const metadata::ColumnPairs allowed =
          source.AllowedColumns(static_cast<int32_t>(si) - 1);
      std::vector<double>& partial = out.by_set_[k][si];
      partial.assign(dk.rows(), 0.0);
      out.cached_values_ += dk.rows();
      common::ParallelFor(
          0, dk.rows(), kUniqueGrain, [&](size_t r_begin, size_t r_end) {
            for (size_t r = r_begin; r < r_end; ++r) {
              const double* d_row = dk.RowPtr(r);
              double acc = 0.0;
              for (size_t p = 0; p < allowed.dk_cols.size(); ++p) {
                const double v = d_row[allowed.dk_cols[p]];
                if (v == 0.0) continue;
                acc += v * target_weights.At(allowed.t_cols[p], 0);
              }
              partial[r] = acc;
            }
          });
    }
  }
  return out;
}

MorpheusReference::MorpheusReference(metadata::DiMetadata metadata)
    : table_(std::move(metadata)) {
  table_.BuildPlans(/*ignore_redundancy=*/true);
}

}  // namespace factorized
}  // namespace amalur
