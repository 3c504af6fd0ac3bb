// Micro-benchmark (ablation): per-operation ABS costs vs. predicate length
// — Sign, Verify (batched vs the column-by-column reference), and Relax. Shows (i) linear growth in
// the predicate length and (ii) the win of the random-weight batched
// verifier over per-column pairing checks.
#include <benchmark/benchmark.h>

#include "abs/abs.h"
#include "reference/abs_unprepared.h"

namespace {

using namespace apqa;
using namespace apqa::abs;

struct Fixture {
  crypto::Rng rng{11};
  MasterKey msk;
  VerifyKey mvk;
  SigningKey sk;
  RoleSet universe;

  explicit Fixture(int roles) {
    Abs::Setup(&rng, &msk, &mvk);
    for (int i = 0; i < roles; ++i) {
      universe.insert("Role" + std::to_string(i));
    }
    sk = Abs::KeyGen(msk, universe, &rng);
  }

  // OR of AND-pairs with `length` leaves.
  Policy PolicyOfLength(int length) {
    std::vector<policy::Clause> clauses;
    for (int i = 0; i + 1 < length; i += 2) {
      clauses.push_back({"Role" + std::to_string(i % universe.size()),
                         "Role" + std::to_string((i + 1) % universe.size())});
    }
    if (clauses.empty()) clauses.push_back({"Role0"});
    return Policy::FromDnfClauses(clauses);
  }
};

std::vector<std::uint8_t> Msg() { return {'b', 'e', 'n', 'c', 'h'}; }

void BM_AbsSign(benchmark::State& state) {
  Fixture f(64);
  Policy pred = f.PolicyOfLength(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Abs::Sign(f.mvk, f.sk, Msg(), pred, &f.rng));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AbsSign)->Arg(2)->Arg(6)->Arg(12)->Arg(24)->Complexity();

void BM_AbsVerifyBatched(benchmark::State& state) {
  Fixture f(64);
  Policy pred = f.PolicyOfLength(static_cast<int>(state.range(0)));
  auto sig = Abs::Sign(f.mvk, f.sk, Msg(), pred, &f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Abs::Verify(f.mvk, Msg(), pred, *sig));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AbsVerifyBatched)->Arg(2)->Arg(6)->Arg(12)->Arg(24)->Complexity();

// Same-run baseline: the reference verifier (reference/abs_unprepared.h:
// no cached G2 line tables, one pair per row). The ratio to
// BM_AbsVerifyBatched is the batch engine's end-to-end win.
void BM_AbsVerifyUnprepared(benchmark::State& state) {
  Fixture f(64);
  Policy pred = f.PolicyOfLength(static_cast<int>(state.range(0)));
  auto sig = Abs::Sign(f.mvk, f.sk, Msg(), pred, &f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(VerifyUnprepared(f.mvk, Msg(), pred, *sig));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AbsVerifyUnprepared)
    ->Arg(2)
    ->Arg(6)
    ->Arg(12)
    ->Arg(24)
    ->Complexity();

void BM_AbsVerifyExact(benchmark::State& state) {
  Fixture f(64);
  Policy pred = f.PolicyOfLength(static_cast<int>(state.range(0)));
  auto sig = Abs::Sign(f.mvk, f.sk, Msg(), pred, &f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        VerifyUnprepared(f.mvk, Msg(), pred, *sig, /*exact=*/true));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AbsVerifyExact)->Arg(2)->Arg(6)->Arg(12)->Arg(24)->Complexity();

void BM_AbsRelax(benchmark::State& state) {
  // Relax a fixed two-role conjunction to a super policy of size N.
  int n = static_cast<int>(state.range(0));
  Fixture f(n + 2);
  Policy pred = Policy::Parse("Role0 & Role1");
  auto sig = Abs::Sign(f.mvk, f.sk, Msg(), pred, &f.rng);
  RoleSet lacked;
  for (int i = 0; i < n; ++i) lacked.insert("Role" + std::to_string(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Abs::Relax(f.mvk, *sig, pred, Msg(), lacked, &f.rng));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AbsRelax)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Complexity();

void BM_AbsVerifyRelaxed(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Fixture f(n + 2);
  Policy pred = Policy::Parse("Role0 & Role1");
  auto sig = Abs::Sign(f.mvk, f.sk, Msg(), pred, &f.rng);
  RoleSet lacked;
  for (int i = 0; i < n; ++i) lacked.insert("Role" + std::to_string(i));
  auto aps = Abs::Relax(f.mvk, *sig, pred, Msg(), lacked, &f.rng);
  Policy super_policy = Policy::OrOfRoles(lacked);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Abs::Verify(f.mvk, Msg(), super_policy, *aps));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AbsVerifyRelaxed)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Complexity();

}  // namespace

BENCHMARK_MAIN();
