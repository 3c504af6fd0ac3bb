// Shared helpers for the paper-reproduction benchmarks.
//
// Every bench binary regenerates one table or figure of the paper: it
// prints the same rows/series the paper reports (absolute numbers differ —
// the substrate is a from-scratch BLS12-381 implementation on one core; the
// *shape* is what must hold, see EXPERIMENTS.md).
//
// Scales are reduced relative to the paper (see tpch/tpch.h). Environment
// overrides: APQA_BENCH_QUERIES (queries averaged per row, default 3),
// APQA_BENCH_FAST (=1 shrinks sweeps for smoke-testing).
#ifndef APQA_BENCH_BENCH_UTIL_H_
#define APQA_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "core/system.h"
#include "tpch/tpch.h"

namespace apqa::bench {

// --- JSON perf-trajectory output -------------------------------------------
//
// When a path is configured (APQA_BENCH_JSON=path in the environment, or a
// `--json=path` argument passed to EnableJsonFromArgs), every RecordJson call
// appends one `{"bench":...,"row":...,"value":...,"unit":...}` line to that
// file, so a sequence of PRs can track absolute numbers in BENCH_*.json
// files without scraping stdout. `unit` says what the value is: "ms" for
// times, "x" for speedup ratios, "count" for counts, "KiB" for sizes.

inline std::string& JsonPath() {
  static std::string path = [] {
    const char* env = std::getenv("APQA_BENCH_JSON");
    return std::string(env != nullptr ? env : "");
  }();
  return path;
}

// Scans argv for --json=PATH (removing nothing; benches ignore unknown args).
inline void EnableJsonFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) JsonPath() = argv[i] + 7;
  }
}

// Latest-run compaction: the first time this process records a row for a
// given (path, bench) pair, every line of that bench already in the file is
// dropped, so re-running a bench replaces its section instead of appending
// a duplicate run (check.sh gates the checked-in BENCH_*.json files on
// having no duplicate (bench, row) pairs). Rows of OTHER benches sharing
// the file are preserved untouched.
inline std::set<std::string>& CompactedBenches() {
  static std::set<std::string> s;
  return s;
}

inline void CompactBenchRows(const std::string& path,
                             const std::string& bench) {
  std::FILE* in = std::fopen(path.c_str(), "r");
  if (in == nullptr) return;  // nothing to compact
  std::vector<std::string> kept;
  const std::string needle = "\"bench\":\"" + bench + "\"";
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), in) != nullptr) {
    std::string line(buf);
    if (line.find(needle) == std::string::npos) kept.push_back(line);
  }
  std::fclose(in);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  for (const std::string& line : kept) std::fputs(line.c_str(), out);
  std::fclose(out);
}

inline void RecordJson(const std::string& bench, const std::string& row,
                       double value, const char* unit) {
  const std::string& path = JsonPath();
  if (path.empty()) return;
  if (CompactedBenches().insert(path + "\x1f" + bench).second) {
    CompactBenchRows(path, bench);
  }
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return;
  std::fprintf(f,
               "{\"bench\":\"%s\",\"row\":\"%s\",\"value\":%.6f,"
               "\"unit\":\"%s\"}\n",
               bench.c_str(), row.c_str(), value, unit);
  std::fclose(f);
}

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(d).count();
  }
  void Reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline int QueriesPerRow() {
  const char* v = std::getenv("APQA_BENCH_QUERIES");
  return v != nullptr ? std::atoi(v) : 3;
}

inline bool FastMode() {
  const char* v = std::getenv("APQA_BENCH_FAST");
  return v != nullptr && std::atoi(v) != 0;
}

// A ready-to-query deployment over TPC-H-style data.
struct Deployment {
  std::unique_ptr<core::DataOwner> owner;
  std::unique_ptr<core::ServiceProvider> sp;
  std::unique_ptr<tpch::PolicyGen> policy_gen;
  policy::RoleSet user_roles;
  std::size_t record_count = 0;
  double build_sign_ms = 0;  // DO signing cost (Table 1)

  core::Vo RangeQuery(const core::Box& range) {
    return sp->RangeQuery(range, user_roles);
  }
};

struct DeployConfig {
  // 16^3 grid: sparse relative to the ~500 records of scale 0.1-1, so
  // inaccessible/pseudo space aggregates in the tree as in the paper.
  core::Domain domain{3, 4};
  double tpch_scale = 0.1;
  int num_policies = 10;
  int num_roles = 10;
  int or_fan = 3;
  int and_fan = 2;
  double user_access_fraction = 0.2;
  int sp_threads = 1;
  std::uint64_t seed = 20180610;  // SIGMOD'18 :)
};

inline Deployment Deploy(const DeployConfig& cfg) {
  Deployment d;
  d.policy_gen = std::make_unique<tpch::PolicyGen>(
      cfg.num_policies, cfg.num_roles, cfg.or_fan, cfg.and_fan, cfg.seed);
  tpch::TpchGen gen(cfg.tpch_scale, cfg.seed);
  auto records = tpch::LineitemRecords(gen.Lineitem(), cfg.domain,
                                       d.policy_gen->policies());
  d.record_count = records.size();
  d.owner = std::make_unique<core::DataOwner>(d.policy_gen->universe(),
                                              cfg.domain, cfg.seed);
  Timer t;
  core::GridTree tree = d.owner->BuildAds(records);
  d.build_sign_ms = t.ElapsedMs();
  d.sp = std::make_unique<core::ServiceProvider>(d.owner->keys(),
                                                 std::move(tree),
                                                 cfg.sp_threads);
  d.user_roles =
      d.policy_gen->RolesForAccessFraction(cfg.user_access_fraction);
  return d;
}

// Measured costs of one authenticated range query, averaged over
// `queries` random Q6-shaped ranges of the given selectivity.
struct QueryCosts {
  double sp_ms = 0;
  double user_ms = 0;
  double vo_kb = 0;
  double results = 0;
  double relaxations = 0;  // APS entries, one ABS.Relax each
};

// Records one exhibit point of `bench` as rows
// "<scheme>_<metric>_sel<percent>", metric sp_ms, user_ms, vo_kb or
// relaxations (e.g. "ap2g_sp_ms_sel8").
inline void RecordPoint(const std::string& bench, const std::string& scheme,
                        double sel, const QueryCosts& c) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), "_sel%g", sel * 100);
  RecordJson(bench, scheme + "_sp_ms" + suffix, c.sp_ms, "ms");
  RecordJson(bench, scheme + "_user_ms" + suffix, c.user_ms, "ms");
  RecordJson(bench, scheme + "_vo_kb" + suffix, c.vo_kb, "KiB");
  RecordJson(bench, scheme + "_relaxations" + suffix, c.relaxations, "count");
}

// Averages every field of `c` over `queries`.
inline QueryCosts PerQuery(QueryCosts c, int queries) {
  c.sp_ms /= queries;
  c.user_ms /= queries;
  c.vo_kb /= queries;
  c.results /= queries;
  c.relaxations /= queries;
  return c;
}

// APS entries of a range or join VO, one ABS.Relax each.
inline double Relaxations(const core::Vo& vo) {
  return static_cast<double>(std::count_if(
      vo.entries.begin(), vo.entries.end(), [](const core::VoEntry& e) {
        return !std::holds_alternative<core::ResultEntry>(e);
      }));
}
inline double Relaxations(const core::JoinVo& vo) {
  double n = 0;
  for (const auto& side : vo.aps) n += static_cast<double>(side.size());
  return n;
}

inline QueryCosts MeasureRange(Deployment& d, double selectivity, int queries,
                               bool basic, std::uint64_t query_seed = 7) {
  crypto::Rng rng(query_seed);
  const core::SystemKeys& keys = d.owner->keys();
  core::User user(keys, d.owner->EnrollUser(d.user_roles));
  QueryCosts costs;
  for (int q = 0; q < queries; ++q) {
    core::Box range = tpch::RandomRangeQuery(keys.domain, selectivity, &rng);
    Timer t;
    core::Vo vo = basic ? d.sp->BasicRangeQuery(range, d.user_roles)
                        : d.sp->RangeQuery(range, d.user_roles);
    costs.sp_ms += t.ElapsedMs();
    costs.vo_kb += static_cast<double>(vo.SerializedSize()) / 1024.0;
    std::vector<core::Record> results;
    t.Reset();
    bool ok = user.VerifyRange(range, vo, &results).ok();
    costs.user_ms += t.ElapsedMs();
    if (!ok) {
      std::fprintf(stderr, "BENCH BUG: VO failed verification\n");
      std::abort();
    }
    costs.results += static_cast<double>(results.size());
    costs.relaxations += Relaxations(vo);
  }
  return PerQuery(costs, queries);
}

inline void PrintHeader(const char* exhibit, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", exhibit, description);
  std::printf("(reduced scale reproduction; see EXPERIMENTS.md for the\n");
  std::printf(" paper-vs-measured shape comparison)\n");
  std::printf("==============================================================\n");
}

}  // namespace apqa::bench

#endif  // APQA_BENCH_BENCH_UTIL_H_
