// Authenticated aggregation over range queries (paper §11 future work).
//
// Given a *verified* range VO, the accessible result set is complete and
// sound, so any aggregate computed over it inherits those guarantees for
// the user's accessible view of the data: COUNT, SUM, MIN, MAX, AVG over a
// numeric field extracted from record values. The extraction function makes
// the module schema-agnostic.
//
// Note the semantics: aggregates are over the records *the user may
// access*. Zero-knowledge confidentiality forbids anything stronger — a
// COUNT over inaccessible records would reveal exactly the information the
// scheme is designed to hide.
#ifndef APQA_CORE_AGGREGATE_H_
#define APQA_CORE_AGGREGATE_H_

#include <functional>
#include <optional>

#include "core/range_query.h"

namespace apqa::core {

struct AggregateResult {
  std::uint64_t count = 0;
  double sum = 0;
  std::optional<double> min;
  std::optional<double> max;

  std::optional<double> Avg() const {
    if (count == 0) return std::nullopt;
    return sum / static_cast<double>(count);
  }
};

// Extracts the aggregated measure from a record; return nullopt to skip the
// record (e.g. non-numeric payloads).
using MeasureFn = std::function<std::optional<double>(const Record&)>;

// Verifies the range VO and, on success, aggregates the accessible results
// into `out` (left untouched on failure).
VerifyResult VerifyAndAggregate(const VerifyContext& ctx, const Box& range,
                                const Vo& vo, const MeasureFn& measure,
                                AggregateResult* out);

// Declassification gate for wire-decoded VOs: the aggregate only exists if
// verification succeeded, so the tainted value feeds the checked path.
inline VerifyResult VerifyAndAggregate(const VerifyContext& ctx,
                                       const Box& range,
                                       const common::Untrusted<Vo>& vo,
                                       const MeasureFn& measure,
                                       AggregateResult* out) {
  // untrusted-ok: VerifyAndAggregate verifies before aggregating.
  return VerifyAndAggregate(ctx, range, vo.Unvalidated(), measure, out);
}

// Convenience measure: parses the record value as a decimal number.
std::optional<double> NumericValueMeasure(const Record& record);

}  // namespace apqa::core

#endif  // APQA_CORE_AGGREGATE_H_
