#include "core/aggregate.h"

#include <cstdlib>

namespace apqa::core {

VerifyResult VerifyAndAggregate(const VerifyContext& ctx, const Box& range,
                                const Vo& vo, const MeasureFn& measure,
                                AggregateResult* out) {
  std::vector<Record> results;
  VerifyResult r = VerifyRangeVo(ctx, range, vo, &results);
  if (!r.ok()) return r;
  AggregateResult agg;
  for (const Record& rec : results) {
    std::optional<double> m = measure(rec);
    if (!m.has_value()) continue;
    ++agg.count;
    agg.sum += *m;
    if (!agg.min.has_value() || *m < *agg.min) agg.min = *m;
    if (!agg.max.has_value() || *m > *agg.max) agg.max = *m;
  }
  if (out != nullptr) *out = agg;
  return r;
}

std::optional<double> NumericValueMeasure(const Record& record) {
  const char* begin = record.value.c_str();
  char* end = nullptr;
  double v = std::strtod(begin, &end);
  if (end == begin) return std::nullopt;
  return v;
}

}  // namespace apqa::core
