// Figure 15 (Appendix E): handling duplicate records — the zero-knowledge
// virtual-dimension AP2G-tree vs. the non-ZK dup-embedding AP2G-tree vs. the
// Basic approach, over data with duplicate query keys. Series: SP CPU time,
// user CPU time, VO size, and ABS.Relax calls per VO.
//
// With --json=PATH (or APQA_BENCH_JSON=PATH) every point is also recorded
// as rows "<scheme>_<metric>_sel<percent>", scheme basic, zk or nonzk,
// metric sp_ms, user_ms, vo_kb or relaxations (e.g. "nonzk_vo_kb_sel20");
// BENCH_paper.json holds a full-mode capture.
#include "bench_util.h"
#include "core/duplicates.h"

using namespace apqa;
using namespace apqa::bench;

int main(int argc, char** argv) {
  EnableJsonFromArgs(argc, argv);
  PrintHeader("Figure 15", "duplicate records: ZK vs non-ZK vs Basic");
  DeployConfig cfg;
  cfg.domain = core::Domain{1, 5};  // 1-D keys 0..31 with duplicates

  tpch::PolicyGen pgen(cfg.num_policies, cfg.num_roles, cfg.or_fan,
                       cfg.and_fan, cfg.seed);
  // Duplicate-heavy data: several records per key (policies vary per
  // record, unlike the main benches).
  crypto::Rng data_rng(cfg.seed);
  std::vector<core::Record> records;
  for (std::uint32_t key = 0; key < cfg.domain.SideLength(); ++key) {
    if (data_rng.NextU64() % 4 == 0) continue;  // some keys absent
    int dups = 1 + static_cast<int>(data_rng.NextU64() % 3);
    for (int d = 0; d < dups; ++d) {
      core::Record r;
      r.key = {key};
      r.value = "v" + std::to_string(key) + "#" + std::to_string(d);
      r.policy = pgen.policies()[data_rng.NextU64() % pgen.policies().size()];
      records.push_back(std::move(r));
    }
  }
  std::printf("records=%zu over %u keys\n\n", records.size(),
              cfg.domain.SideLength());

  policy::RoleSet roles = pgen.RolesForAccessFraction(0.2);

  // --- ZK: merge + virtual dimension + standard AP2G-tree. ----------------
  auto merged = core::MergeSuperRecords(records);
  core::DataOwner zk_owner(pgen.universe(), core::Domain{2, cfg.domain.bits},
                           cfg.seed);
  crypto::Rng vrng(3);
  auto extended =
      core::AddVirtualDimension(cfg.domain, merged, cfg.domain.bits, &vrng);
  Timer t_zk;
  core::GridTree zk_tree = zk_owner.BuildAds(extended.records);
  double zk_build = t_zk.ElapsedMs();
  std::size_t zs, zsig;
  zk_tree.SerializedSize(&zs, &zsig);
  core::ServiceProvider zk_sp(zk_owner.keys(), std::move(zk_tree));
  core::User zk_user(zk_owner.keys(), zk_owner.EnrollUser(roles));

  // --- Non-ZK: dup-embedding grid tree. ------------------------------------
  core::DataOwner nz_owner(pgen.universe(), cfg.domain, cfg.seed + 1);
  Timer t_nz;
  core::DupGridTree nz_tree = core::DupGridTree::Build(
      nz_owner.keys().mvk, nz_owner.signing_key(), cfg.domain, records,
      nz_owner.rng());
  double nz_build = t_nz.ElapsedMs();
  std::size_t ns, nsig;
  nz_tree.SerializedSize(&ns, &nsig);
  core::VerifyContext nz_ctx(nz_owner.keys().mvk, cfg.domain, roles,
                             nz_owner.keys().universe);

  std::printf("Index: ZK %.2f MB (%.2f + %.2f), built %.0f ms | "
              "non-ZK %.2f MB (%.2f + %.2f), built %.0f ms\n\n",
              (zs + zsig) / 1048576.0, zs / 1048576.0, zsig / 1048576.0,
              zk_build, (ns + nsig) / 1048576.0, ns / 1048576.0,
              nsig / 1048576.0, nz_build);

  int queries = QueriesPerRow();
  std::printf("%-10s | %-28s | %-28s | %-24s | %-22s\n", "Range",
              "SP CPU (ms) B/ZK/nZK", "User CPU (ms) B/ZK/nZK",
              "VO (KB) B/ZK/nZK", "Relax/VO B/ZK/nZK");
  std::vector<double> sels = FastMode()
                                 ? std::vector<double>{0.2}
                                 : std::vector<double>{0.1, 0.2, 0.4};
  crypto::Rng nz_rng(17);
  for (double sel : sels) {
    crypto::Rng qrng(7);
    QueryCosts basic, zk, nonzk;
    for (int q = 0; q < queries; ++q) {
      core::Box range = tpch::RandomRangeQuery(cfg.domain, sel, &qrng);
      core::Box zk_range =
          core::ExtendRangeToVirtualDim(range, extended.extended_domain);

      // Basic (ZK, per-cell equality over the extended domain).
      Timer t;
      core::Vo bvo = zk_sp.BasicRangeQuery(zk_range, roles);
      basic.sp_ms += t.ElapsedMs();
      basic.vo_kb += bvo.SerializedSize() / 1024.0;
      basic.relaxations += Relaxations(bvo);
      t.Reset();
      bool ok0 = zk_user.VerifyRange(zk_range, bvo, nullptr).ok();
      basic.user_ms += t.ElapsedMs();

      // ZK AP2G-tree over the virtual dimension.
      t.Reset();
      core::Vo zvo = zk_sp.RangeQuery(zk_range, roles);
      zk.sp_ms += t.ElapsedMs();
      zk.vo_kb += zvo.SerializedSize() / 1024.0;
      zk.relaxations += Relaxations(zvo);
      t.Reset();
      bool ok1 = zk_user.VerifyRange(zk_range, zvo, nullptr).ok();
      zk.user_ms += t.ElapsedMs();

      // Non-ZK dup-embedding tree.
      t.Reset();
      core::DupVo nvo = core::BuildDupRangeVo(nz_tree, nz_owner.keys().mvk,
                                              range, roles,
                                              nz_owner.keys().universe,
                                              &nz_rng);
      nonzk.sp_ms += t.ElapsedMs();
      nonzk.vo_kb += nvo.SerializedSize() / 1024.0;
      nonzk.relaxations +=
          static_cast<double>(nvo.inaccessible.size() + nvo.boxes.size());
      t.Reset();
      bool ok2 = core::VerifyDupRangeVo(nz_ctx, range, nvo, nullptr).ok();
      nonzk.user_ms += t.ElapsedMs();
      if (!ok0 || !ok1 || !ok2) {
        std::fprintf(stderr, "BENCH BUG: duplicate VO failed (%d/%d/%d)\n",
                     ok0, ok1, ok2);
        return 1;
      }
    }
    basic = PerQuery(basic, queries);
    zk = PerQuery(zk, queries);
    nonzk = PerQuery(nonzk, queries);
    std::printf("%-9.1f%% | %7.0f/%7.0f/%-10.0f | %7.0f/%7.0f/%-10.0f |"
                " %6.0f/%6.0f/%-8.0f | %5.1f/%5.1f/%-8.1f\n",
                sel * 100, basic.sp_ms, zk.sp_ms, nonzk.sp_ms, basic.user_ms,
                zk.user_ms, nonzk.user_ms, basic.vo_kb, zk.vo_kb, nonzk.vo_kb,
                basic.relaxations, zk.relaxations, nonzk.relaxations);
    std::fflush(stdout);
    RecordPoint("fig15_duplicates", "basic", sel, basic);
    RecordPoint("fig15_duplicates", "zk", sel, zk);
    RecordPoint("fig15_duplicates", "nonzk", sel, nonzk);
  }
  std::printf("\nExpected shape (paper Fig 15): the ZK virtual-dimension\n"
              "index costs ~3x the non-ZK variant (and ~3-4x its size), and\n"
              "the ZK AP2G-tree stays about half the cost of Basic.\n");
  return 0;
}
