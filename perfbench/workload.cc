#include "perfbench/workload.h"

#include <algorithm>
#include <set>
#include <utility>

namespace apqa::perfbench {

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kRangeQ6: return "range-q6";
    case Workload::kPointLookup: return "point-lookup";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kRangeQ6, Workload::kPointLookup}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

crypto::Rng StreamRng(std::uint64_t seed, Workload w, int stream,
                      Phase phase) {
  // SplitMix64 finalizer over the packed stream coordinates: distinct
  // coordinates give unrelated ChaCha keys.
  std::uint64_t z = seed ^ (static_cast<std::uint64_t>(w) << 56) ^
                    (static_cast<std::uint64_t>(stream) << 40) ^
                    (static_cast<std::uint64_t>(phase) << 32);
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return crypto::Rng(z);
}

std::vector<core::Box> RangeOps(crypto::Rng* rng, const core::Domain& domain,
                                int n) {
  std::vector<core::Box> ops;
  for (int i = 0; i < n; ++i) {
    ops.push_back(tpch::RandomRangeQuery(domain, 0.01, rng));
  }
  return ops;
}

std::vector<core::Point> UniformPointOps(crypto::Rng* rng,
                                         const core::Domain& domain, int n) {
  std::vector<core::Point> ops;
  for (int i = 0; i < n; ++i) {
    core::Point p(domain.dims);
    for (auto& c : p) {
      c = static_cast<std::uint32_t>(rng->NextU64() % domain.SideLength());
    }
    ops.push_back(std::move(p));
  }
  return ops;
}

std::vector<UpdateBatch> UpdateBatches(crypto::Rng* rng,
                                       const std::vector<core::Record>& records,
                                       const tpch::PolicyGen& policies, int n,
                                       int batch_size) {
  std::vector<UpdateBatch> batches;
  for (int b = 0; b < n; ++b) {
    std::set<std::size_t> picked;
    while (static_cast<int>(picked.size()) < batch_size) {
      picked.insert(rng->NextU64() % records.size());
    }
    UpdateBatch batch;
    for (std::size_t idx : picked) {
      core::AdsUpdateOp op;
      op.kind = core::AdsUpdateOp::Kind::kUpsert;
      op.record.key = records[idx].key;
      op.record.policy = policies.PolicyForKey(op.record.key);
      op.record.value.resize(records[idx].value.size());
      for (char& ch : op.record.value) {
        ch = static_cast<char>('a' + rng->NextU64() % 26);
      }
      batch.push_back(std::move(op));
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

Mirror::Mirror(const std::vector<core::Record>& records,
               policy::RoleSet user_roles)
    : user_roles_(std::move(user_roles)) {
  for (const core::Record& r : records) base_.emplace(r.key, r);
}

void Mirror::Append(const UpdateBatch& batch) {
  std::map<core::Point, core::Record> version;
  for (const core::AdsUpdateOp& op : batch) version[op.record.key] = op.record;
  std::lock_guard lock(mu_);
  batches_.push_back(std::move(version));
}

std::uint64_t Mirror::epoch() const {
  std::lock_guard lock(mu_);
  return batches_.size();
}

const core::Record* Mirror::Lookup(const core::Point& key,
                                   std::uint64_t epoch) const {
  for (std::uint64_t e = epoch; e > 0; --e) {
    auto it = batches_[e - 1].find(key);
    if (it != batches_[e - 1].end()) return &it->second;
  }
  auto it = base_.find(key);
  return it == base_.end() ? nullptr : &it->second;
}

bool Mirror::CheckPoint(const core::Point& key, std::uint64_t epoch,
                        bool accessible, const core::Record& got) const {
  std::lock_guard lock(mu_);
  if (epoch > batches_.size()) return false;
  const core::Record* want = Lookup(key, epoch);
  bool want_accessible =
      want != nullptr && want->policy.Evaluate(user_roles_);
  if (accessible != want_accessible) return false;
  return !accessible || (got.key == want->key && got.value == want->value);
}

bool Mirror::CheckRange(const core::Box& range, std::uint64_t epoch,
                        std::vector<core::Record> got) const {
  std::lock_guard lock(mu_);
  if (epoch > batches_.size()) return false;
  std::vector<std::pair<core::Point, std::string>> want;
  // Only the records can be in the answer, so walking the table's keys
  // covers every candidate cell of the box.
  for (const auto& entry : base_) {
    if (!range.Contains(entry.first)) continue;
    const core::Record* r = Lookup(entry.first, epoch);
    if (r->policy.Evaluate(user_roles_)) want.emplace_back(r->key, r->value);
  }
  std::vector<std::pair<core::Point, std::string>> have;
  for (core::Record& r : got) have.emplace_back(r.key, std::move(r.value));
  std::sort(have.begin(), have.end());
  return have == want;
}

}  // namespace apqa::perfbench
