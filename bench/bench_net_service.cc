// Micro-benchmark: what the service runtime (src/net/) costs on top of the
// protocol itself.
//
//   frame         — EncodeFrame/DecodeFrame (checksum included) at VO-sized
//                   payloads; this is the per-message tax of the wire format.
//   rpc_overhead  — the same equality/range query issued (a) as a direct
//                   core::ServiceProvider call with local verification and
//                   (b) through SpServer + ApqaClient over an in-process
//                   PipeTransport. The difference is queueing + framing +
//                   (de)serialization, not crypto.
//   update        — end-to-end DO→SP maintenance latency: re-sign the
//                   touched leaves and every ancestor whose OR-policy
//                   changed, mint the epoch attestation, encode the
//                   kAdsUpdate payload, decode it strictly, authenticate and
//                   apply at the SP. Swept over batch sizes 1/16/256, then
//                   split by batch shape at 16 ops: value-only overwrites
//                   (leaves only) against policy changes that re-sign every
//                   ancestor up to the root.
//   recovery      — crash-recovery wall time (SpStateStore::Recover: genesis
//                   load + full WAL replay through the validate-then-apply
//                   gate) swept over WAL lengths 4/16/64, showing the linear
//                   replay cost that snapshotting amortizes away.
//
// Every row is also emitted through the JSON trajectory sink (bench_util.h):
//   APQA_BENCH_JSON=BENCH_net.json ./bench_net_service   (or --json=PATH)
// The update and recovery rows carry their own bench tag so scripts/check.sh
// can gate them into BENCH_update.json (a full-mode capture). The checked-in
// BENCH_net.json holds the net_service rows of an APQA_BENCH_FAST=1 run.
#include <algorithm>
#include <memory>
#include <string>

#include "bench_util.h"
#include "common/journal.h"
#include "core/sp_storage.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/pipe_transport.h"
#include "net/server.h"

namespace {

using namespace apqa;
using apqa::bench::RecordJson;
using apqa::bench::Timer;

constexpr const char* kBench = "net_service";

template <typename T>
void Sink(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

template <typename Fn>
double TimeMs(int iters, Fn&& fn) {
  Timer t;
  for (int i = 0; i < iters; ++i) fn();
  return t.ElapsedMs() / iters;
}

void Report(const char* row, double ms) {
  std::printf("  %-28s %10.3f ms\n", row, ms);
  RecordJson(kBench, row, ms, "ms");
}

void BenchFraming(int iters) {
  std::printf("frame encode/decode (%d iters)\n", iters);
  for (std::size_t payload_bytes : {64u, 4096u, 262144u}) {
    net::Frame f;
    f.type = net::MsgType::kVoResponse;
    f.request_id = 42;
    f.payload.assign(payload_bytes, 0xa5);
    std::vector<std::uint8_t> wire = net::EncodeFrame(f);
    char row[64];
    std::snprintf(row, sizeof(row), "encode_%zuB", payload_bytes);
    Report(row, TimeMs(iters, [&] { Sink(net::EncodeFrame(f)); }));
    std::snprintf(row, sizeof(row), "decode_%zuB", payload_bytes);
    net::Frame out;
    Report(row, TimeMs(iters, [&] { Sink(net::DecodeFrameRaw(wire, &out)); }));
  }
}

void BenchRpcOverhead(int queries) {
  std::printf("direct call vs RPC over pipe (%d queries averaged)\n", queries);
  bench::DeployConfig cfg;
  bench::Deployment d = bench::Deploy(cfg);
  const core::SystemKeys& keys = d.owner->keys();
  core::UserCredentials creds = d.owner->EnrollUser(d.user_roles);
  core::User user(keys, creds);
  crypto::Rng rng(7);

  std::vector<core::Box> ranges;
  for (int q = 0; q < queries; ++q) {
    ranges.push_back(tpch::RandomRangeQuery(keys.domain, 0.05, &rng));
  }

  double direct = TimeMs(queries, [&, i = 0]() mutable {
    const core::Box& range = ranges[static_cast<std::size_t>(i++)];
    core::Vo vo = d.sp->RangeQuery(range, d.user_roles);
    std::vector<core::Record> rows;
    bool ok = user.VerifyRange(range, vo, &rows).ok();
    Sink(ok);
  });
  Report("range_direct", direct);

  auto [server_end, client_end] = net::PipeTransport::CreatePair();
  net::SpServer server(d.sp.get());
  if (!server.AttachTransport(server_end)) return;
  net::ClientOptions copts;
  copts.deadline_ms = 60000;
  copts.attempt_timeout_ms = 30000;
  net::ApqaClient client(keys, creds, client_end, copts);

  double rpc = TimeMs(queries, [&, i = 0]() mutable {
    std::vector<core::Record> rows;
    net::ClientResult r =
        client.Range(ranges[static_cast<std::size_t>(i++)], &rows);
    if (!r.ok()) {
      std::fprintf(stderr, "BENCH BUG: %s\n", r.ToString().c_str());
      std::abort();
    }
  });
  Report("range_rpc_pipe", rpc);
  Report("range_rpc_tax", rpc - direct);
  server.Stop();
}

// One DO→SP push, timed end to end: DO re-sign, encode, strict decode,
// authenticate and apply at the SP. Aborts if the SP rejects the update.
double TimedPush(core::DataOwner* owner, core::GridTree* do_tree,
                 core::ServiceProvider* sp,
                 const std::vector<core::AdsUpdateOp>& ops) {
  Timer t;
  core::SignedAdsUpdate update = owner->ApplyUpdates(do_tree, ops);
  std::vector<std::uint8_t> wire = net::EncodeAdsUpdatePayload(update);
  core::SignedAdsUpdate decoded;
  if (!net::DecodeAdsUpdatePayload(wire, &decoded)) {
    std::fprintf(stderr, "BENCH BUG: update payload failed to decode\n");
    std::abort();
  }
  core::ApplyStatus status = sp->ApplyAdsUpdate(decoded);
  double ms = t.ElapsedMs();
  if (status != core::ApplyStatus::kApplied) {
    std::fprintf(stderr, "BENCH BUG: update rejected (%s)\n",
                 core::ApplyStatusName(status));
    std::abort();
  }
  return ms;
}

// The 16 seed records of the update benches on a 16x16 grid (5 and 3 are
// invertible mod 16, so the keys are pairwise distinct).
std::vector<core::Record> UpdateSeedRecords() {
  std::vector<core::Record> out;
  for (std::uint32_t i = 0; i < 16; ++i) {
    out.push_back(core::Record{
        core::Point{(i * 5u) % 16u, (i * 3u) % 16u}, "seed",
        core::Policy::Parse(i % 2 == 0 ? "RoleA" : "RoleB")});
  }
  return out;
}

void BenchUpdateLatency() {
  std::printf("DO->SP update latency vs batch size\n");
  // A 16x16 grid (depth 4) is the smallest domain where a 256-op batch can
  // touch 256 distinct unit cells, so the largest row measures genuinely
  // disjoint leaf work while still sharing upper-level ancestors.
  core::Domain domain{2, 4};
  core::RoleSet universe{"RoleA", "RoleB"};
  core::DataOwner owner(universe, domain, /*seed=*/20260810);
  core::GridTree do_tree = owner.BuildAds(UpdateSeedRecords());
  core::ServiceProvider sp(owner.keys(), core::GridTree(do_tree));

  int reps = bench::FastMode() ? 1 : 3;
  for (int batch : {1, 16, 256}) {
    double total_ms = 0;
    for (int rep = 0; rep < reps; ++rep) {
      std::vector<core::AdsUpdateOp> ops;
      for (int i = 0; i < batch; ++i) {
        // Row-major sweep over the grid: each op in a batch hits its own
        // unit cell. Cells that change policy re-sign their changed
        // ancestors; repeat writes of RoleA cells are value-only.
        auto idx = static_cast<std::uint32_t>(i);
        ops.push_back(core::AdsUpdateOp{
            core::AdsUpdateOp::Kind::kUpsert,
            core::Record{core::Point{idx % 16u, idx / 16u}, "upd",
                         core::Policy::Parse("RoleA")}});
      }
      total_ms += TimedPush(&owner, &do_tree, &sp, ops);
    }
    char row[64];
    std::snprintf(row, sizeof(row), "update_latency_vs_batch_%d", batch);
    double ms = total_ms / reps;
    std::printf("  %-28s %10.3f ms\n", row, ms);
    RecordJson("update", row, ms, "ms");
  }
}

void BenchUpdateShape() {
  std::printf("DO->SP update latency by batch shape (16 ops)\n");
  // Both rows rewrite the 16 seed records. Value-only keeps each policy,
  // so no OR-policy above a leaf changes: 16 leaf signatures. The policy
  // change moves all 16 keys onto a role no other record holds (RoleC,
  // then RoleD on the next rep), so every ancestor's OR changes and the
  // whole root-ward path is re-signed.
  core::Domain domain{2, 4};
  core::RoleSet universe{"RoleA", "RoleB", "RoleC", "RoleD"};
  core::DataOwner owner(universe, domain, /*seed=*/20260810);
  const std::vector<core::Record> seeds = UpdateSeedRecords();
  core::GridTree do_tree = owner.BuildAds(seeds);
  core::ServiceProvider sp(owner.keys(), core::GridTree(do_tree));

  int reps = bench::FastMode() ? 1 : 3;
  auto run = [&](const char* row, auto policy_of) {
    double total_ms = 0;
    for (int rep = 0; rep < reps; ++rep) {
      std::vector<core::AdsUpdateOp> ops;
      for (const core::Record& r : seeds) {
        ops.push_back(core::AdsUpdateOp{
            core::AdsUpdateOp::Kind::kUpsert,
            core::Record{r.key, "v" + std::to_string(rep),
                         policy_of(r, rep)}});
      }
      total_ms += TimedPush(&owner, &do_tree, &sp, ops);
    }
    double ms = total_ms / reps;
    std::printf("  %-28s %10.3f ms\n", row, ms);
    RecordJson("update", row, ms, "ms");
  };
  run("update_value_only_batch_16",
      [](const core::Record& r, int) { return r.policy; });
  run("update_policy_change_batch_16", [](const core::Record&, int rep) {
    return core::Policy::Parse(rep % 2 == 0 ? "RoleC" : "RoleD");
  });
}

void BenchRecoveryTime() {
  std::printf("crash recovery time vs WAL length\n");
  core::Domain domain{2, 4};
  core::RoleSet universe{"RoleA", "RoleB"};
  core::DataOwner owner(universe, domain, /*seed=*/20260810);
  core::GridTree do_tree = owner.BuildAds(UpdateSeedRecords());
  // ABS signing is randomized, so a rebuilt genesis would carry a different
  // digest; keep the epoch-0 copy every recovery starts from.
  const core::GridTree genesis(do_tree);

  // Journal max_len applied 4-op batches once, keeping a snapshot of the
  // WAL image at each measured length; every recovery then replays a fresh
  // MemFile copy of that image.
  const std::vector<int> lens{4, 16, 64};
  const int max_len = lens.back();
  common::MemFile wal;
  common::JournalWriter writer(&wal, 1);
  std::vector<std::vector<std::uint8_t>> images;
  for (int b = 0; b < max_len; ++b) {
    std::vector<core::AdsUpdateOp> ops;
    for (int i = 0; i < 4; ++i) {
      auto idx = static_cast<std::uint32_t>(4 * b + i);
      ops.push_back(core::AdsUpdateOp{
          core::AdsUpdateOp::Kind::kUpsert,
          core::Record{core::Point{idx % 16u, (idx / 16u) % 16u}, "upd",
                       core::Policy::Parse("RoleA")}});
    }
    core::SignedAdsUpdate update = owner.ApplyUpdates(&do_tree, ops);
    if (!writer.Append(net::EncodeAdsUpdatePayload(update))) {
      std::fprintf(stderr, "BENCH BUG: WAL append failed\n");
      std::abort();
    }
    if (std::find(lens.begin(), lens.end(), b + 1) != lens.end()) {
      images.push_back(wal.data());
    }
  }

  int reps = bench::FastMode() ? 1 : 3;
  for (std::size_t l = 0; l < lens.size(); ++l) {
    double total_ms = 0;
    for (int rep = 0; rep < reps; ++rep) {
      common::MemFile snap;
      common::MemFile wal_copy(images[l]);
      core::SpStateStore store(&snap, &wal_copy);
      core::RecoveryStats rs;
      Timer t;
      core::GridTree tree =
          store.Recover(owner.keys(), core::GridTree(genesis), &rs);
      total_ms += t.ElapsedMs();
      if (rs.wal_applied != static_cast<std::uint64_t>(lens[l]) ||
          tree.epoch() != static_cast<std::uint64_t>(lens[l])) {
        std::fprintf(stderr, "BENCH BUG: recovery replayed %llu/%d batches\n",
                     static_cast<unsigned long long>(rs.wal_applied), lens[l]);
        std::abort();
      }
    }
    char row[64];
    std::snprintf(row, sizeof(row), "recovery_time_vs_wal_len_%d", lens[l]);
    double ms = total_ms / reps;
    std::printf("  %-28s %10.3f ms\n", row, ms);
    RecordJson("update", row, ms, "ms");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::EnableJsonFromArgs(argc, argv);
  bench::PrintHeader("net_service",
                     "service runtime overhead: framing + RPC vs direct calls");
  int iters = bench::FastMode() ? 200 : 2000;
  BenchFraming(iters);
  BenchRpcOverhead(bench::QueriesPerRow());
  BenchUpdateLatency();
  BenchUpdateShape();
  BenchRecoveryTime();
  return 0;
}
