// Seeded operation streams and the plaintext oracle of the service
// benchmark (service_bench.cc).
//
// Every input the benchmark sends is a pure function of the workload seed:
// each (workload, stream, phase) triple gets its own ChaCha stream, so the
// warm-up ops never share draws with the timed ones and the timed sequence
// never depends on how threads interleave.
#ifndef APQA_PERFBENCH_WORKLOAD_H_
#define APQA_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/ads_update.h"
#include "core/record.h"
#include "crypto/rng.h"
#include "tpch/tpch.h"

namespace apqa::perfbench {

enum class Workload : std::uint8_t { kRangeQ6 = 1, kPointLookup };

const char* WorkloadName(Workload w);
bool ParseWorkload(const std::string& name, Workload* out);

enum class Phase : std::uint8_t { kWarmup = 1, kTimed = 2 };

// Stream ids: query client i uses stream i; the DO update stream uses
// kUpdateStream.
inline constexpr int kUpdateStream = 100;

// Independent generator for one (seed, workload, stream, phase).
crypto::Rng StreamRng(std::uint64_t seed, Workload w, int stream, Phase phase);

// Q6-shaped boxes at 1% selectivity (3x3x3 cells of the 16^3 grid).
std::vector<core::Box> RangeOps(crypto::Rng* rng, const core::Domain& domain,
                                int n);
// Equality keys drawn uniformly over the whole grid.
std::vector<core::Point> UniformPointOps(crypto::Rng* rng,
                                         const core::Domain& domain, int n);

using UpdateBatch = std::vector<core::AdsUpdateOp>;

// `n` batches of `batch_size` upserts on distinct existing keys. Each upsert
// keeps the key's policy (PolicyForKey, the rule the records were generated
// with) and writes a fresh value of the old value's length, so a VO for a
// key has the same size at every epoch and byte counts depend on the seed
// alone, not on which epoch a query happens to observe.
std::vector<UpdateBatch> UpdateBatches(crypto::Rng* rng,
                                       const std::vector<core::Record>& records,
                                       const tpch::PolicyGen& policies, int n,
                                       int batch_size);

// Plaintext copy of the table, one version per ADS epoch: epoch e is the
// genesis records with the first e applied batches on top. Verified answers
// are compared against the version at the epoch the SP claimed to serve.
// Thread-safe.
class Mirror {
 public:
  Mirror(const std::vector<core::Record>& records, policy::RoleSet user_roles);

  // Records the batch that advances the ADS to epoch epoch()+1. Called
  // before the batch is pushed, so every epoch the SP can serve is known.
  void Append(const UpdateBatch& batch);
  std::uint64_t epoch() const;

  bool CheckPoint(const core::Point& key, std::uint64_t epoch,
                  bool accessible, const core::Record& got) const;
  bool CheckRange(const core::Box& range, std::uint64_t epoch,
                  std::vector<core::Record> got) const;

 private:
  // The record at `key` as of `epoch`; null for an empty cell.
  const core::Record* Lookup(const core::Point& key,
                             std::uint64_t epoch) const;

  mutable std::mutex mu_;
  policy::RoleSet user_roles_;
  std::map<core::Point, core::Record> base_;
  std::vector<std::map<core::Point, core::Record>> batches_;
};

}  // namespace apqa::perfbench

#endif  // APQA_PERFBENCH_WORKLOAD_H_
