// Tests for the lock-rank (lockdep) validator in common/lock_rank.h: the
// held-rank bookkeeping, violation detection and reporting, the abort
// default, condition-variable wait bookkeeping, and an end-to-end regression
// pinning the documented rank order across a full server/client/update
// interleaving (no violation on any lock the service runtime takes).
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/lock_rank.h"
#include "core/system.h"
#include "net/client.h"
#include "net/pipe_transport.h"
#include "net/server.h"

namespace apqa::common {
namespace {

#ifdef APQA_LOCKDEP
constexpr bool kLockdepOn = true;
#else
constexpr bool kLockdepOn = false;
#endif

// The violation observed by the test handler. Handlers are raw function
// pointers (they must be installable from a signal-unsafe abort path), so
// the capture goes through globals.
std::atomic<int> g_seen{0};
std::atomic<int> g_held_rank{0};
std::atomic<int> g_acquiring_rank{0};

void CaptureViolation(LockRank held, LockRank acquiring) {
  g_seen.fetch_add(1);
  g_held_rank.store(static_cast<int>(held));
  g_acquiring_rank.store(static_cast<int>(acquiring));
}

// Installs the capturing handler for one test body and always restores the
// default (print + abort) on the way out.
class HandlerGuard {
 public:
  HandlerGuard() {
    g_seen.store(0);
    lockdep::SetViolationHandlerForTest(&CaptureViolation);
  }
  ~HandlerGuard() { lockdep::SetViolationHandlerForTest(nullptr); }
};

TEST(LockdepTest, InOrderAcquisitionIsClean) {
  if (!kLockdepOn) GTEST_SKIP() << "APQA_LOCKDEP off in this build";
  HandlerGuard guard;
  RankedMutex<LockRank::kServerSessions> low;
  RankedMutex<LockRank::kServerSp> mid;
  RankedMutex<LockRank::kThreadPool> high;
  EXPECT_EQ(lockdep::HeldCount(), 0u);
  {
    std::lock_guard l1(low);
    std::lock_guard l2(mid);
    std::lock_guard l3(high);
    EXPECT_EQ(lockdep::HeldCount(), 3u);
  }
  EXPECT_EQ(lockdep::HeldCount(), 0u);
  EXPECT_EQ(g_seen.load(), 0);
}

TEST(LockdepTest, OutOfOrderAcquisitionIsReported) {
  if (!kLockdepOn) GTEST_SKIP() << "APQA_LOCKDEP off in this build";
  HandlerGuard guard;
  RankedMutex<LockRank::kServerSp> lower;
  RankedMutex<LockRank::kThreadPool> higher;
  std::uint64_t before = lockdep::ViolationCount();
  {
    std::lock_guard l1(higher);
    std::lock_guard l2(lower);  // inversion: 20 while holding 30
    EXPECT_EQ(lockdep::HeldCount(), 2u);  // tolerated, still tracked
  }
  EXPECT_EQ(g_seen.load(), 1);
  EXPECT_EQ(g_held_rank.load(), static_cast<int>(LockRank::kThreadPool));
  EXPECT_EQ(g_acquiring_rank.load(), static_cast<int>(LockRank::kServerSp));
  EXPECT_EQ(lockdep::ViolationCount(), before + 1);
  EXPECT_EQ(lockdep::HeldCount(), 0u);
}

TEST(LockdepTest, EqualRankReacquisitionIsReported) {
  if (!kLockdepOn) GTEST_SKIP() << "APQA_LOCKDEP off in this build";
  HandlerGuard guard;
  // Two distinct mutexes sharing a tier: the order between them is
  // undocumented, so holding both at once is exactly the ambiguity the
  // strict ordering forbids (see the kSigningBuild comment in cpabe.cc).
  RankedMutex<LockRank::kSigningBuild> a;
  RankedMutex<LockRank::kSigningBuild> b;
  std::lock_guard l1(a);
  std::lock_guard l2(b);
  EXPECT_EQ(g_seen.load(), 1);
}

TEST(LockdepTest, TryLockChecksOrderToo) {
  if (!kLockdepOn) GTEST_SKIP() << "APQA_LOCKDEP off in this build";
  HandlerGuard guard;
  RankedMutex<LockRank::kServerSessions> lower;
  RankedMutex<LockRank::kTransportPipe> higher;
  std::lock_guard l1(higher);
  ASSERT_TRUE(lower.try_lock());
  EXPECT_EQ(g_seen.load(), 1);
  lower.unlock();
}

TEST(LockdepTest, ConditionVariableWaitKeepsBookkeeping) {
  if (!kLockdepOn) GTEST_SKIP() << "APQA_LOCKDEP off in this build";
  HandlerGuard guard;
  RankedMutex<LockRank::kTransportPipe> mu;
  std::condition_variable_any cv;
  bool ready = false;
  std::size_t held_in_predicate = 99;
  std::size_t held_after_wait = 99;
  std::thread waiter([&] {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] {
      // The predicate runs with the lock held — the rank stack must agree
      // even though wait() released and reacquired it in between.
      held_in_predicate = lockdep::HeldCount();
      return ready;
    });
    held_after_wait = lockdep::HeldCount();
  });
  {
    std::lock_guard lock(mu);
    ready = true;
  }
  cv.notify_one();
  waiter.join();
  EXPECT_EQ(held_in_predicate, 1u);
  EXPECT_EQ(held_after_wait, 1u);
  EXPECT_EQ(g_seen.load(), 0);
}

TEST(LockdepDeathTest, DefaultHandlerAborts) {
  if (!kLockdepOn) GTEST_SKIP() << "APQA_LOCKDEP off in this build";
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "death tests are unreliable under TSan";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  GTEST_SKIP() << "death tests are unreliable under TSan";
#endif
#endif
  EXPECT_DEATH(
      {
        RankedMutex<LockRank::kServerSp> lower;
        RankedMutex<LockRank::kSigningBuild> higher;
        std::lock_guard l1(higher);
        std::lock_guard l2(lower);
      },
      "lockdep: rank inversion");
}

// --- end-to-end rank-order regression ---------------------------------------

core::Record Rec(std::uint32_t key, const std::string& value,
                 const char* pol) {
  return core::Record{core::Point{key}, value, core::Policy::Parse(pol)};
}

// Pins the documented lock order of the whole service runtime: concurrent
// queries (sessions_mu_ → sp_mu_ → pool/signing, transports at
// the leaves) interleaved with an authenticated ADS update must not trip a
// single rank check. A refactor that nests any two of these locks the other
// way fails here on the first occurrence, not on the unlucky schedule that
// deadlocks.
TEST(LockdepServiceTest, ServiceInterleavingHoldsDocumentedOrder) {
  std::uint64_t before = lockdep::ViolationCount();

  core::Domain domain{/*dims=*/1, /*bits=*/3};
  auto owner = std::make_unique<core::DataOwner>(
      core::RoleSet{"RoleA", "RoleB"}, domain, 20260810);
  auto do_tree = owner->BuildAds({
      Rec(1, "v1", "RoleA"),
      Rec(5, "v5", "RoleB"),
  });
  auto sp = std::make_unique<core::ServiceProvider>(owner->keys(), do_tree);
  core::UserCredentials creds = owner->EnrollUser({"RoleA"});

  net::ClientOptions copts;
  copts.deadline_ms = 20000;
  copts.attempt_timeout_ms = 5000;
  copts.max_attempts = 8;
  copts.backoff = {1, 20};

  net::SpServerOptions sopts;
  sopts.worker_threads = 2;  // real handoff through the ranked pool lock
  net::SpServer server(sp.get(), sopts);

  auto [q_server_end, q_client_end] = net::PipeTransport::CreatePair();
  auto [u_server_end, u_client_end] = net::PipeTransport::CreatePair();
  ASSERT_TRUE(server.AttachTransport(q_server_end));
  ASSERT_TRUE(server.AttachTransport(u_server_end));

  std::thread query_thread([&] {
    net::ApqaClient client(owner->keys(), creds, q_client_end, copts);
    for (int i = 0; i < 4; ++i) {
      core::Record rec;
      bool accessible = false;
      net::ClientResult r =
          client.Equality(core::Point{1}, &rec, &accessible);
      ASSERT_TRUE(r.ok()) << r.ToString();
      std::vector<core::Record> rows;
      r = client.Range(core::Box{core::Point{0}, core::Point{7}}, &rows);
      ASSERT_TRUE(r.ok()) << r.ToString();
    }
  });
  std::thread update_thread([&] {
    net::DoUpdateClient pusher(u_client_end, copts);
    core::SignedAdsUpdate update = owner->ApplyUpdates(
        &do_tree,
        {{core::AdsUpdateOp::Kind::kUpsert, Rec(3, "v3", "RoleA")}});
    net::UpdateResult ur = pusher.Push(update);
    ASSERT_TRUE(ur.ok()) << ur.ToString();
  });
  query_thread.join();
  update_thread.join();
  server.Stop();

  EXPECT_EQ(lockdep::ViolationCount(), before)
      << "a lock in the service runtime was acquired out of rank order; "
         "the documented order lives in common/lock_rank.h";
}

}  // namespace
}  // namespace apqa::common
