// Tests for the fault-tolerant SP query service (src/net/): frame format
// totality, transport behavior, retry/backoff/deadline math, server load
// shedding and drain-then-stop shutdown, the malicious-SP fatal path, and
// seeded chaos suites over a FaultyTransport.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "common/serde.h"
#include "core/system.h"
#include "net/backoff.h"
#include "net/client.h"
#include "net/faulty_transport.h"
#include "net/frame.h"
#include "net/pipe_transport.h"
#include "net/server.h"
#include "net/socket_transport.h"

namespace apqa::net {
namespace {

using core::Box;
using core::Point;
using core::Policy;
using core::Record;
using core::RoleSet;

// --- frame format -----------------------------------------------------------

Frame MakeTestFrame() {
  Frame f;
  f.type = MsgType::kRangeQuery;
  f.request_id = 0x1122334455667788ULL;
  f.deadline_ms = 250;
  f.payload = {1, 2, 3, 4, 5, 6, 7};
  return f;
}

TEST(FrameTest, Roundtrip) {
  Frame f = MakeTestFrame();
  std::vector<std::uint8_t> wire = EncodeFrame(f);
  EXPECT_EQ(wire.size(),
            kFrameHeaderBytes + f.payload.size() + kFrameChecksumBytes);
  Frame out;
  ASSERT_EQ(DecodeFrameRaw(wire, &out), FrameDecodeError::kOk);
  EXPECT_EQ(out.type, f.type);
  EXPECT_EQ(out.request_id, f.request_id);
  EXPECT_EQ(out.deadline_ms, f.deadline_ms);
  EXPECT_EQ(out.payload, f.payload);
}

TEST(FrameTest, DecodeErrorTaxonomy) {
  Frame f = MakeTestFrame();
  std::vector<std::uint8_t> wire = EncodeFrame(f);
  Frame out;

  std::vector<std::uint8_t> shorter(wire.begin(), wire.begin() + 10);
  EXPECT_EQ(DecodeFrameRaw(shorter, &out), FrameDecodeError::kTruncated);

  std::vector<std::uint8_t> bad = wire;
  bad[0] = 'X';
  EXPECT_EQ(DecodeFrameRaw(bad, &out), FrameDecodeError::kBadMagic);

  bad = wire;
  bad[4] = 99;  // version
  EXPECT_EQ(DecodeFrameRaw(bad, &out), FrameDecodeError::kBadVersion);

  bad = wire;
  bad[5] = 0;  // type below range
  EXPECT_EQ(DecodeFrameRaw(bad, &out), FrameDecodeError::kBadType);
  bad[5] = 200;
  EXPECT_EQ(DecodeFrameRaw(bad, &out), FrameDecodeError::kBadType);

  bad = wire;
  bad[18] = 0xff;  // payload length far beyond the buffer
  bad[19] = 0xff;
  bad[20] = 0xff;
  bad[21] = 0xff;
  EXPECT_EQ(DecodeFrameRaw(bad, &out), FrameDecodeError::kBadLength);

  bad = wire;
  bad.resize(bad.size() - 3);  // cut into the checksum
  EXPECT_EQ(DecodeFrameRaw(bad, &out), FrameDecodeError::kTruncated);

  bad = wire;
  bad.push_back(0);
  EXPECT_EQ(DecodeFrameRaw(bad, &out), FrameDecodeError::kTrailingBytes);

  bad = wire;
  bad[kFrameHeaderBytes] ^= 1;  // payload bit
  EXPECT_EQ(DecodeFrameRaw(bad, &out), FrameDecodeError::kBadChecksum);
}

TEST(FrameTest, EverySingleBitFlipIsRejected) {
  // The checksum (or a header check) must catch any single-bit corruption:
  // this is the wire-level half of "no corruption is ever accepted".
  Frame f = MakeTestFrame();
  std::vector<std::uint8_t> wire = EncodeFrame(f);
  Frame out;
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> bad = wire;
      bad[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(DecodeFrameRaw(bad, &out), FrameDecodeError::kOk)
          << "accepted flip of bit " << bit << " in byte " << byte;
    }
  }
}

TEST(FrameTest, ErrorPayloadRoundtripAndStrictness) {
  ErrorInfo info{RpcErrorCode::kRetryLater, 75, "queue full"};
  std::vector<std::uint8_t> payload = EncodeErrorPayload(info);
  ErrorInfo out;
  ASSERT_TRUE(DecodeErrorPayload(payload, &out));
  EXPECT_EQ(out.code, RpcErrorCode::kRetryLater);
  EXPECT_EQ(out.backoff_hint_ms, 75u);
  EXPECT_EQ(out.detail, "queue full");

  std::vector<std::uint8_t> truncated(payload.begin(), payload.end() - 1);
  EXPECT_FALSE(DecodeErrorPayload(truncated, &out));
  std::vector<std::uint8_t> trailing = payload;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeErrorPayload(trailing, &out));
  std::vector<std::uint8_t> bad_code = payload;
  bad_code[0] = 77;
  EXPECT_FALSE(DecodeErrorPayload(bad_code, &out));
}

TEST(FrameTest, QueryPayloadRoundtripAndStrictness) {
  QueryRequest req;
  req.type = MsgType::kRangeQuery;
  req.range = Box{Point{1, 2}, Point{5, 6}};
  req.roles = {"RoleA", "RoleB"};
  std::vector<std::uint8_t> payload = EncodeQueryPayload(req);

  QueryRequest out;
  ASSERT_TRUE(DecodeQueryPayload(MsgType::kRangeQuery, payload, &out));
  EXPECT_EQ(out.range, req.range);
  EXPECT_EQ(out.roles, req.roles);

  // Wrong type for the bytes, truncation, and trailing garbage all fail.
  EXPECT_FALSE(DecodeQueryPayload(MsgType::kVoResponse, payload, &out));
  std::vector<std::uint8_t> truncated(payload.begin(), payload.end() - 2);
  EXPECT_FALSE(DecodeQueryPayload(MsgType::kRangeQuery, truncated, &out));
  std::vector<std::uint8_t> trailing = payload;
  trailing.push_back(7);
  EXPECT_FALSE(DecodeQueryPayload(MsgType::kRangeQuery, trailing, &out));

  // Inverted boxes are rejected at the payload boundary.
  QueryRequest inverted = req;
  inverted.range = Box{Point{5, 6}, Point{1, 2}};
  std::vector<std::uint8_t> bad = EncodeQueryPayload(inverted);
  EXPECT_FALSE(DecodeQueryPayload(MsgType::kRangeQuery, bad, &out));

  QueryRequest eq;
  eq.type = MsgType::kEqualityQuery;
  eq.key = Point{9};
  eq.roles = {"RoleC"};
  std::vector<std::uint8_t> eq_payload = EncodeQueryPayload(eq);
  ASSERT_TRUE(DecodeQueryPayload(MsgType::kEqualityQuery, eq_payload, &out));
  EXPECT_EQ(out.key, eq.key);
  EXPECT_EQ(out.roles, eq.roles);
}

// --- backoff & deadline math ------------------------------------------------

TEST(BackoffTest, GoldenSequenceUnderFixedSeed) {
  // Retry schedules must be reproducible from the seed alone; this pins the
  // exact sequence so any change to the jitter math is a conscious one.
  DecorrelatedJitterBackoff b({/*base_ms=*/10, /*cap_ms=*/1000}, /*seed=*/42);
  const std::uint32_t kGolden[] = {29, 11, 28, 49, 74, 148, 80, 177};
  for (std::uint32_t expect : kGolden) {
    EXPECT_EQ(b.NextDelayMs(), expect);
  }
}

TEST(BackoffTest, SaturatesAtCapAndStaysInRange) {
  DecorrelatedJitterBackoff b({/*base_ms=*/10, /*cap_ms=*/25}, /*seed=*/7);
  std::uint32_t max_seen = 0;
  for (int i = 0; i < 50; ++i) {
    std::uint32_t d = b.NextDelayMs();
    EXPECT_GE(d, 10u);
    EXPECT_LE(d, 25u);
    max_seen = std::max(max_seen, d);
  }
  EXPECT_EQ(max_seen, 25u);
}

TEST(BackoffTest, ServerHintFloorsTheDelay) {
  DecorrelatedJitterBackoff b({10, 1000}, 42);
  EXPECT_EQ(b.NextDelayMs(), 29u);       // same stream as the golden test
  EXPECT_EQ(b.NextDelayMs(200), 200u);   // hint floors the 11ms draw
  DecorrelatedJitterBackoff capped({10, 50}, 42);
  capped.NextDelayMs();
  // A hint above the cap is clamped to the cap.
  EXPECT_EQ(capped.NextDelayMs(500), 50u);
}

TEST(BackoffTest, BudgetCapClampsDelayAndRebasesGrowth) {
  // The remaining-deadline cap clamps LAST: neither jitter growth nor a
  // hostile/huge server hint can schedule a sleep past the budget, and the
  // clamped value becomes the growth base (prev) for the next draw.
  DecorrelatedJitterBackoff b({/*base_ms=*/10, /*cap_ms=*/1000}, /*seed=*/42);
  EXPECT_EQ(b.NextDelayMs(0, kNoBudgetCap), 29u);  // golden stream unchanged
  EXPECT_EQ(b.NextDelayMs(0, 5), 5u);              // 11ms draw, 5ms budget
  // prev re-based to 5: the next draw is in [10, max(10, 15)] — golden
  // value under the same seed stream, pinned like the other sequences.
  EXPECT_EQ(b.NextDelayMs(0, kNoBudgetCap), 10u);
  // A server hint beyond the budget must not win: floor first, clamp last.
  EXPECT_EQ(b.NextDelayMs(/*server_hint_ms=*/900, /*budget_cap_ms=*/37), 37u);
  // Zero budget yields zero delay (the caller then reports deadline
  // exceeded rather than sleeping).
  EXPECT_EQ(b.NextDelayMs(0, 0), 0u);

  // Default argument = no cap: the original one-argument golden sequence
  // is untouched end to end.
  DecorrelatedJitterBackoff plain({10, 1000}, 42);
  const std::uint32_t kGolden[] = {29, 11, 28, 49, 74, 148, 80, 177};
  for (std::uint32_t expect : kGolden) {
    EXPECT_EQ(plain.NextDelayMs(), expect);
  }
}

TEST(DeadlineBudgetTest, EdgeCases) {
  DeadlineBudget zero(0, 1000);
  EXPECT_EQ(zero.RemainingMs(1000), 0u);
  EXPECT_TRUE(zero.Expired(1000));

  DeadlineBudget b(100, 1000);
  EXPECT_EQ(b.RemainingMs(1000), 100u);
  EXPECT_EQ(b.RemainingMs(1050), 50u);
  EXPECT_EQ(b.RemainingMs(1100), 0u);   // exactly exhausted
  EXPECT_EQ(b.RemainingMs(5000), 0u);   // long past: saturates, no wrap
  EXPECT_EQ(b.RemainingMs(900), 100u);  // clock stepped backwards
}

// --- pipe transport ---------------------------------------------------------

TEST(PipeTransportTest, SendRecvCloseTimeout) {
  auto [a, b] = PipeTransport::CreatePair();
  std::vector<std::uint8_t> msg = {1, 2, 3};
  ASSERT_TRUE(a->Send(msg));
  std::vector<std::uint8_t> got;
  ASSERT_EQ(b->Recv(&got, 100), RecvStatus::kOk);
  EXPECT_EQ(got, msg);

  EXPECT_EQ(b->Recv(&got, 10), RecvStatus::kTimeout);

  a->Close();
  EXPECT_EQ(b->Recv(&got, 10), RecvStatus::kClosed);
  EXPECT_FALSE(b->Send(msg));
}

TEST(PipeTransportTest, CloseWhileBlockedInRecvUnblocksCleanly) {
  // A shutdown path closes transports from another thread while a session
  // is parked inside Recv. The blocked call must return a clean status
  // promptly — no hang until the timeout, no use-after-free (TSan guards
  // the latter). Both sides are exercised: peer close and own close.
  for (bool close_own_side : {false, true}) {
    auto [a, b] = PipeTransport::CreatePair();
    std::atomic<bool> entered{false};
    RecvStatus status = RecvStatus::kOk;
    std::thread receiver([&, b = b] {
      std::vector<std::uint8_t> buf;
      entered.store(true);
      status = b->Recv(&buf, /*timeout_ms=*/30000);
    });
    while (!entered.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto t0 = std::chrono::steady_clock::now();
    (close_own_side ? b : a)->Close();
    receiver.join();
    auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);
    EXPECT_EQ(status, RecvStatus::kClosed) << "own side: " << close_own_side;
    EXPECT_LT(waited.count(), 5000) << "Close() must wake Recv, not wait "
                                       "out the 30s timeout";
  }
}

TEST(PipeTransportTest, FullInboxDropsLikeADatagramLink) {
  auto [a, b] = PipeTransport::CreatePair(/*max_queued_frames=*/2);
  std::vector<std::uint8_t> msg = {9};
  EXPECT_TRUE(a->Send(msg));
  EXPECT_TRUE(a->Send(msg));
  EXPECT_TRUE(a->Send(msg));  // dropped, not an error
  std::vector<std::uint8_t> got;
  EXPECT_EQ(b->Recv(&got, 10), RecvStatus::kOk);
  EXPECT_EQ(b->Recv(&got, 10), RecvStatus::kOk);
  EXPECT_EQ(b->Recv(&got, 10), RecvStatus::kTimeout);
}

// --- faulty transport -------------------------------------------------------

// Inner transport that records every delivered buffer.
class RecordingTransport : public Transport {
 public:
  bool Send(const std::vector<std::uint8_t>& frame) override {
    delivered.push_back(frame);
    return true;
  }
  RecvStatus Recv(std::vector<std::uint8_t>*, std::uint32_t) override {
    return RecvStatus::kTimeout;
  }
  void Close() override {}

  std::vector<std::vector<std::uint8_t>> delivered;
};

TEST(FaultyTransportTest, DeterministicUnderFixedSeed) {
  FaultSpec spec;
  spec.drop_permille = 150;
  spec.hold_permille = 100;
  spec.dup_permille = 100;
  spec.truncate_permille = 100;
  spec.corrupt_permille = 150;

  auto run = [&](std::uint64_t seed) {
    auto inner = std::make_shared<RecordingTransport>();
    FaultyTransport faulty(inner, spec, seed);
    for (std::uint8_t i = 0; i < 200; ++i) {
      std::vector<std::uint8_t> frame(16, i);
      faulty.Send(frame);
    }
    return std::make_pair(inner->delivered, faulty.counters());
  };

  auto [frames1, c1] = run(1234);
  auto [frames2, c2] = run(1234);
  EXPECT_EQ(frames1, frames2);
  EXPECT_EQ(c1.dropped, c2.dropped);
  EXPECT_EQ(c1.corrupted, c2.corrupted);
  // The spec actually exercised every fault at these rates.
  EXPECT_GT(c1.dropped, 0u);
  EXPECT_GT(c1.held, 0u);
  EXPECT_GT(c1.duplicated, 0u);
  EXPECT_GT(c1.truncated, 0u);
  EXPECT_GT(c1.corrupted, 0u);
  EXPECT_EQ(c1.sent, 200u);

  auto [frames3, c3] = run(99);
  EXPECT_NE(frames1, frames3);  // a different seed is a different world
}

TEST(FaultyTransportTest, CorruptedFramesNeverDecode) {
  // corrupt flips exactly one bit, so every corrupted delivery must fail
  // DecodeFrame (checksum), and every clean delivery must succeed.
  FaultSpec spec;
  spec.corrupt_permille = 500;
  auto inner = std::make_shared<RecordingTransport>();
  FaultyTransport faulty(inner, spec, 7);
  Frame f = MakeTestFrame();
  std::vector<std::uint8_t> wire = EncodeFrame(f);
  for (int i = 0; i < 100; ++i) faulty.Send(wire);

  std::size_t ok = 0, rejected = 0;
  Frame out;
  for (const auto& buf : inner->delivered) {
    if (DecodeFrameRaw(buf, &out) == FrameDecodeError::kOk) {
      ++ok;
    } else {
      ++rejected;
    }
  }
  FaultCounters c = faulty.counters();
  EXPECT_EQ(rejected, c.corrupted);
  EXPECT_EQ(ok + rejected, c.sent);
  EXPECT_GT(c.corrupted, 10u);
}

// --- client deadline math against a fake clock ------------------------------

// Transport that never answers; Recv consumes fake time, so the client's
// whole schedule (attempts, backoffs, deadline) runs in zero real time.
class BlackHoleTransport : public Transport {
 public:
  explicit BlackHoleTransport(std::uint64_t* fake_now) : now_(fake_now) {}
  bool Send(const std::vector<std::uint8_t>&) override {
    ++sends;
    return true;
  }
  RecvStatus Recv(std::vector<std::uint8_t>*, std::uint32_t timeout_ms) override {
    *now_ += timeout_ms;
    return RecvStatus::kTimeout;
  }
  void Close() override {}

  int sends = 0;

 private:
  std::uint64_t* now_;
};

core::SystemKeys DummyKeys();  // defined below, after the service fixture

TEST(ClientDeadlineTest, ZeroBudgetFailsBeforeAnySend) {
  std::uint64_t now = 1000;
  auto transport = std::make_shared<BlackHoleTransport>(&now);
  ClientOptions opts;
  opts.deadline_ms = 0;
  ApqaClient client(DummyKeys(), core::UserCredentials{}, transport, opts);
  client.SetClockForTest([&] { return now; });
  client.SetSleepForTest([&](std::uint32_t ms) { now += ms; });

  ClientResult r = client.Equality(Point{1}, nullptr, nullptr);
  EXPECT_EQ(r.status, ClientStatus::kDeadlineExceeded);
  EXPECT_EQ(r.attempts, 0);
  EXPECT_EQ(transport->sends, 0);
}

TEST(ClientDeadlineTest, BudgetBoundsAttemptsAndNeverOversleeps) {
  std::uint64_t now = 0;
  auto transport = std::make_shared<BlackHoleTransport>(&now);
  ClientOptions opts;
  opts.deadline_ms = 1000;
  opts.attempt_timeout_ms = 300;
  opts.max_attempts = 50;
  opts.backoff = {50, 400};
  opts.backoff_seed = 42;
  ApqaClient client(DummyKeys(), core::UserCredentials{}, transport, opts);
  client.SetClockForTest([&] { return now; });
  client.SetSleepForTest([&](std::uint32_t ms) { now += ms; });

  ClientResult r = client.Range(Box{Point{0}, Point{3}}, nullptr);
  EXPECT_EQ(r.status, ClientStatus::kDeadlineExceeded);
  EXPECT_EQ(transport->sends, r.attempts);
  EXPECT_GE(r.attempts, 2);
  EXPECT_LT(r.attempts, 50);
  // The client gave up without sleeping past its deadline.
  EXPECT_LE(now, 1000u + 300u);
  // Deterministic schedule: same seed, same fake clock → same trace.
  std::uint64_t now2 = 0;
  auto transport2 = std::make_shared<BlackHoleTransport>(&now2);
  ApqaClient client2(DummyKeys(), core::UserCredentials{}, transport2, opts);
  client2.SetClockForTest([&] { return now2; });
  client2.SetSleepForTest([&](std::uint32_t ms) { now2 += ms; });
  ClientResult r2 = client2.Range(Box{Point{0}, Point{3}}, nullptr);
  EXPECT_EQ(r2.attempts, r.attempts);
  EXPECT_EQ(r2.backoff_total_ms, r.backoff_total_ms);
  EXPECT_EQ(now2, now);
}

TEST(ClientDeadlineTest, RetriesExhaustedWithinAmpleBudget) {
  std::uint64_t now = 0;
  auto transport = std::make_shared<BlackHoleTransport>(&now);
  ClientOptions opts;
  opts.deadline_ms = 1u << 30;  // effectively unlimited
  opts.attempt_timeout_ms = 100;
  opts.max_attempts = 3;
  opts.backoff = {10, 50};
  ApqaClient client(DummyKeys(), core::UserCredentials{}, transport, opts);
  client.SetClockForTest([&] { return now; });
  client.SetSleepForTest([&](std::uint32_t ms) { now += ms; });

  ClientResult r = client.Equality(Point{1}, nullptr, nullptr);
  EXPECT_EQ(r.status, ClientStatus::kRetriesExhausted);
  EXPECT_EQ(r.attempts, 3);
  EXPECT_EQ(transport->sends, 3);
}

// --- shared service fixture -------------------------------------------------

Record Rec(std::uint32_t key, const std::string& value, const char* pol) {
  return Record{Point{key}, value, Policy::Parse(pol)};
}

// One signed deployment for every service-level test (ADS signing is the
// expensive part; the tests only differ in transports and options).
struct ServiceEnv {
  std::unique_ptr<core::DataOwner> owner;
  std::unique_ptr<core::ServiceProvider> sp;
  core::UserCredentials creds_ab;  // {RoleA, RoleB}
  core::UserCredentials creds_c;   // {RoleC}

  static ServiceEnv& Get() {
    static ServiceEnv* env = [] {
      auto* e = new ServiceEnv();  // intentionally leaked test singleton
      core::Domain domain{/*dims=*/1, /*bits=*/4};
      e->owner = std::make_unique<core::DataOwner>(
          RoleSet{"RoleA", "RoleB", "RoleC"}, domain, 20260807);
      std::vector<Record> records = {
          Rec(1, "v1", "RoleA"),
          Rec(3, "v3", "RoleA & RoleB"),
          Rec(4, "v4", "RoleC"),
          Rec(7, "v7", "(RoleA & RoleB) | RoleC"),
          Rec(9, "v9", "RoleB"),
          Rec(12, "v12", "RoleC & RoleB"),
      };
      std::vector<Record> records_s = {
          Rec(3, "s3", "RoleA"),
          Rec(7, "s7", "RoleB"),
          Rec(9, "s9", "RoleC"),
      };
      e->sp = std::make_unique<core::ServiceProvider>(
          e->owner->keys(), e->owner->BuildAds(records));
      e->sp->AttachJoinTable(e->owner->BuildAds(records_s));
      e->creds_ab = e->owner->EnrollUser({"RoleA", "RoleB"});
      e->creds_c = e->owner->EnrollUser({"RoleC"});
      return e;
    }();
    return *env;
  }
};

core::SystemKeys DummyKeys() { return ServiceEnv::Get().owner->keys(); }

ClientOptions FastClientOptions() {
  ClientOptions opts;
  opts.deadline_ms = 20000;  // generous: sanitizer builds are slow
  opts.attempt_timeout_ms = 5000;
  opts.max_attempts = 8;
  opts.backoff = {1, 20};  // short real sleeps keep the suite fast
  return opts;
}

// --- end-to-end over the pipe transport -------------------------------------

TEST(SpServiceTest, EqualityRangeAndJoinOverPipe) {
  ServiceEnv& env = ServiceEnv::Get();
  auto [server_end, client_end] = PipeTransport::CreatePair();
  SpServer server(env.sp.get());
  ASSERT_TRUE(server.AttachTransport(server_end));
  ApqaClient client(env.owner->keys(), env.creds_ab, client_end,
                    FastClientOptions());

  Record rec;
  bool accessible = false;
  ClientResult r = client.Equality(Point{1}, &rec, &accessible);
  ASSERT_TRUE(r.ok()) << r.ToString();
  EXPECT_EQ(r.attempts, 1);
  EXPECT_TRUE(accessible);
  EXPECT_EQ(rec.value, "v1");

  // Inaccessible key: verifies, not accessible.
  r = client.Equality(Point{4}, &rec, &accessible);
  ASSERT_TRUE(r.ok()) << r.ToString();
  EXPECT_FALSE(accessible);

  std::vector<Record> rows;
  r = client.Range(Box{Point{1}, Point{9}}, &rows);
  ASSERT_TRUE(r.ok()) << r.ToString();
  std::vector<std::string> values;
  for (const auto& row : rows) values.push_back(row.value);
  EXPECT_EQ(values, (std::vector<std::string>{"v1", "v3", "v7", "v9"}));

  std::vector<std::vector<Record>> pairs;
  r = client.Join(Box{Point{0}, Point{15}}, &pairs);
  ASSERT_TRUE(r.ok()) << r.ToString();
  ASSERT_EQ(pairs.size(), 2u);  // keys 3 and 7 accessible on both sides
  EXPECT_EQ(pairs[0][0].value, "v3");
  EXPECT_EQ(pairs[0][1].value, "s3");

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.served, 4u);
  EXPECT_EQ(stats.accepted, 4u);
  server.Stop();
}

TEST(SpServiceTest, OutOfDomainQueryIsFatalNotRetried) {
  ServiceEnv& env = ServiceEnv::Get();
  auto [server_end, client_end] = PipeTransport::CreatePair();
  SpServer server(env.sp.get());
  ASSERT_TRUE(server.AttachTransport(server_end));
  ApqaClient client(env.owner->keys(), env.creds_ab, client_end,
                    FastClientOptions());

  Record rec;
  // Key 99 is outside the 4-bit domain: the server answers kBadRequest and
  // the client must not burn retries on it.
  ClientResult r = client.Equality(Point{99}, &rec, nullptr);
  EXPECT_EQ(r.status, ClientStatus::kServerRejected);
  EXPECT_EQ(r.server_error.code, RpcErrorCode::kBadRequest);
  EXPECT_EQ(r.attempts, 1);
  server.Stop();
}

TEST(SpServiceTest, LoadSheddingAnswersEveryFrameAndRecovers) {
  ServiceEnv& env = ServiceEnv::Get();
  auto [server_end, client_end] = PipeTransport::CreatePair(
      /*max_queued_frames=*/4096);
  SpServerOptions opts;
  opts.worker_threads = 2;
  opts.max_queue = 2;  // tiny queue: the flood must shed
  opts.backoff_hint_ms = 5;
  SpServer server(env.sp.get(), opts);
  ASSERT_TRUE(server.AttachTransport(server_end));

  // Flood raw equality frames faster than the SP can execute them.
  constexpr int kFlood = 40;
  QueryRequest req;
  req.type = MsgType::kEqualityQuery;
  req.key = Point{1};
  req.roles = {"RoleA", "RoleB"};
  std::vector<std::uint8_t> payload = EncodeQueryPayload(req);
  for (int i = 0; i < kFlood; ++i) {
    Frame f;
    f.type = MsgType::kEqualityQuery;
    f.request_id = 1000 + static_cast<std::uint64_t>(i);
    f.deadline_ms = 0;  // no deadline: only shedding is under test
    f.payload = payload;
    ASSERT_TRUE(client_end->Send(EncodeFrame(f)));
  }

  // Every decodable query frame gets exactly one response.
  int vo_responses = 0, retry_later = 0;
  std::uint32_t hint = 0;
  for (int i = 0; i < kFlood; ++i) {
    std::vector<std::uint8_t> buf;
    ASSERT_EQ(client_end->Recv(&buf, 30000), RecvStatus::kOk)
        << "response " << i << " never arrived";
    Frame resp;
    ASSERT_EQ(DecodeFrameRaw(buf, &resp), FrameDecodeError::kOk);
    if (resp.type == MsgType::kVoResponse) {
      ++vo_responses;
    } else {
      ASSERT_EQ(resp.type, MsgType::kError);
      ErrorInfo info;
      ASSERT_TRUE(DecodeErrorPayload(resp.payload, &info));
      ASSERT_EQ(info.code, RpcErrorCode::kRetryLater);
      hint = info.backoff_hint_ms;
      ++retry_later;
    }
  }
  EXPECT_GT(retry_later, 0) << "flood never overflowed the queue";
  EXPECT_GT(vo_responses, 0);
  EXPECT_EQ(hint, 5u);  // the server's configured backoff hint came through

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(retry_later));
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(vo_responses));
  EXPECT_EQ(stats.served, stats.accepted);

  // The shed server is not wedged: a verifying client still succeeds.
  ApqaClient client(env.owner->keys(), env.creds_ab, client_end,
                    FastClientOptions());
  Record rec;
  ClientResult r = client.Equality(Point{1}, &rec, nullptr);
  EXPECT_TRUE(r.ok()) << r.ToString();
  server.Stop();
}

TEST(SpServiceTest, QueuedRequestsPastDeadlineAreExpiredNotExecuted) {
  ServiceEnv& env = ServiceEnv::Get();
  auto [server_end, client_end] = PipeTransport::CreatePair(4096);
  SpServerOptions opts;
  opts.worker_threads = 2;
  opts.max_queue = 0;  // unbounded: everything is accepted, some must expire
  SpServer server(env.sp.get(), opts);
  ASSERT_TRUE(server.AttachTransport(server_end));

  constexpr int kBurst = 20;
  QueryRequest req;
  req.type = MsgType::kRangeQuery;
  req.range = Box{Point{0}, Point{15}};
  req.roles = {"RoleA", "RoleB"};
  std::vector<std::uint8_t> payload = EncodeQueryPayload(req);
  for (int i = 0; i < kBurst; ++i) {
    Frame f;
    f.type = MsgType::kRangeQuery;
    f.request_id = 2000 + static_cast<std::uint64_t>(i);
    f.deadline_ms = 1;  // expires while waiting behind earlier queries
    f.payload = payload;
    ASSERT_TRUE(client_end->Send(EncodeFrame(f)));
  }

  int served = 0, expired = 0;
  for (int i = 0; i < kBurst; ++i) {
    std::vector<std::uint8_t> buf;
    ASSERT_EQ(client_end->Recv(&buf, 60000), RecvStatus::kOk);
    Frame resp;
    ASSERT_EQ(DecodeFrameRaw(buf, &resp), FrameDecodeError::kOk);
    if (resp.type == MsgType::kVoResponse) {
      ++served;
    } else {
      ASSERT_EQ(resp.type, MsgType::kError);
      ErrorInfo info;
      ASSERT_TRUE(DecodeErrorPayload(resp.payload, &info));
      ASSERT_EQ(info.code, RpcErrorCode::kDeadlineExceeded);
      ++expired;
    }
  }
  EXPECT_GT(expired, 0) << "no queued request outlived its 1ms deadline";

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(stats.served + stats.expired, stats.accepted);
  EXPECT_EQ(stats.served, static_cast<std::uint64_t>(served));
  EXPECT_EQ(stats.expired, static_cast<std::uint64_t>(expired));
  server.Stop();
}

// --- malicious SP -----------------------------------------------------------

// A scripted "SP" speaking the frame protocol on the server end of a pipe.
class ScriptedSp {
 public:
  using Responder = std::function<std::optional<Frame>(const Frame&)>;

  ScriptedSp(std::shared_ptr<Transport> end, Responder responder)
      : end_(std::move(end)), responder_(std::move(responder)) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~ScriptedSp() {
    stop_.store(true);
    end_->Close();
    thread_.join();
  }

 private:
  void Loop() {
    std::vector<std::uint8_t> buf;
    while (!stop_.load()) {
      RecvStatus st = end_->Recv(&buf, 20);
      if (st == RecvStatus::kClosed) return;
      if (st != RecvStatus::kOk) continue;
      Frame frame;
      if (DecodeFrameRaw(buf, &frame) != FrameDecodeError::kOk) continue;
      std::optional<Frame> resp = responder_(frame);
      if (resp.has_value()) {
        resp->request_id = frame.request_id;
        end_->Send(EncodeFrame(*resp));
      }
    }
  }

  std::shared_ptr<Transport> end_;
  Responder responder_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(MaliciousSpTest, ForgedVoIsFatalOnFirstAttempt) {
  ServiceEnv& env = ServiceEnv::Get();
  // The forged response: a *valid* VO for key 1, served for whatever was
  // asked. It parses cleanly; verification must kill it, and the client
  // must not retry (a malicious SP is not a transient fault).
  core::Vo wrong_vo =
      env.sp->EqualityQuery(Point{1}, env.creds_ab.roles);
  common::ByteWriter w;
  wrong_vo.Serialize(&w);
  std::vector<std::uint8_t> wrong_payload = w.Take();

  auto [server_end, client_end] = PipeTransport::CreatePair();
  ScriptedSp sp(server_end, [&](const Frame&) {
    Frame resp;
    resp.type = MsgType::kVoResponse;
    resp.payload = wrong_payload;
    return resp;
  });
  ApqaClient client(env.owner->keys(), env.creds_ab, client_end,
                    FastClientOptions());
  Record rec;
  ClientResult r = client.Equality(Point{3}, &rec, nullptr);
  EXPECT_EQ(r.status, ClientStatus::kVerifyRejected);
  EXPECT_EQ(r.attempts, 1) << "verification failure must not trigger retries";
  EXPECT_FALSE(r.verify.ok());
}

TEST(MaliciousSpTest, TruncatedVoInsideValidFrameIsRetryable) {
  ServiceEnv& env = ServiceEnv::Get();
  core::Vo vo = env.sp->EqualityQuery(Point{1}, env.creds_ab.roles);
  common::ByteWriter w;
  vo.Serialize(&w);
  std::vector<std::uint8_t> payload = w.Take();
  payload.resize(payload.size() / 2);  // torn VO, re-framed with a good
                                       // checksum: parse fails, not verify

  auto [server_end, client_end] = PipeTransport::CreatePair();
  ScriptedSp sp(server_end, [&](const Frame&) {
    Frame resp;
    resp.type = MsgType::kVoResponse;
    resp.payload = payload;
    return resp;
  });
  ClientOptions opts = FastClientOptions();
  opts.attempt_timeout_ms = 100;
  opts.max_attempts = 3;
  ApqaClient client(env.owner->keys(), env.creds_ab, client_end, opts);
  ClientResult r = client.Equality(Point{1}, nullptr, nullptr);
  EXPECT_EQ(r.status, ClientStatus::kRetriesExhausted);
  EXPECT_EQ(r.attempts, 3);
}

TEST(MaliciousSpTest, WrongResponseTypeIsFatal) {
  ServiceEnv& env = ServiceEnv::Get();
  auto [server_end, client_end] = PipeTransport::CreatePair();
  ScriptedSp sp(server_end, [&](const Frame&) {
    Frame resp;
    resp.type = MsgType::kJoinVoResponse;  // equality query, join response
    resp.payload = {};
    return resp;
  });
  ApqaClient client(env.owner->keys(), env.creds_ab, client_end,
                    FastClientOptions());
  ClientResult r = client.Equality(Point{1}, nullptr, nullptr);
  EXPECT_EQ(r.status, ClientStatus::kVerifyRejected);
  EXPECT_EQ(r.attempts, 1);
}

// --- chaos suite ------------------------------------------------------------

TEST(ChaosTest, QueriesSurviveFaultsAndNoCorruptionIsAccepted) {
  ServiceEnv& env = ServiceEnv::Get();
  auto [server_pipe, client_pipe] = PipeTransport::CreatePair(4096);

  FaultSpec spec;
  spec.drop_permille = 20;
  spec.hold_permille = 10;
  spec.dup_permille = 10;
  spec.truncate_permille = 10;
  spec.corrupt_permille = 20;

  // Fault both directions with independent seeded streams.
  auto server_end =
      std::make_shared<FaultyTransport>(server_pipe, spec, /*seed=*/101);
  auto client_end =
      std::make_shared<FaultyTransport>(client_pipe, spec, /*seed=*/202);

  SpServer server(env.sp.get());
  ASSERT_TRUE(server.AttachTransport(server_end));
  // A lost frame costs a whole attempt timeout, so the chaos budget trades
  // differently from the clean tests: shorter attempts (still far above the
  // sanitizer-slowed query compute time) and room for all 8 of them.
  ClientOptions copts = FastClientOptions();
  copts.attempt_timeout_ms = 4000;
  copts.deadline_ms = 36000;
  ApqaClient client(env.owner->keys(), env.creds_ab, client_end, copts);

  constexpr int kQueries = 20;
  int ok = 0, typed_failures = 0;
  for (int i = 0; i < kQueries; ++i) {
    ClientResult r;
    if (i % 4 == 3) {
      std::vector<Record> rows;
      r = client.Range(Box{Point{1}, Point{9}}, &rows);
      if (r.ok()) {
        ASSERT_EQ(rows.size(), 4u) << "verified range returned wrong rows";
      }
    } else {
      Record rec;
      bool accessible = false;
      r = client.Equality(Point{static_cast<std::uint32_t>(i % 16)}, &rec,
                          &accessible);
    }
    if (r.ok()) {
      ++ok;
    } else {
      // Faults may exhaust a retry budget, but they must never look like
      // anything other than a transient failure: corruption is caught by
      // checksum + strict parsing, so kVerifyRejected here would mean a
      // corrupted response was accepted as authoritative.
      ASSERT_TRUE(r.status == ClientStatus::kRetriesExhausted ||
                  r.status == ClientStatus::kDeadlineExceeded)
          << r.ToString();
      ++typed_failures;
    }
  }
  // With ≤2% per-fault rates and all 8 attempts fitting in the deadline,
  // the per-query failure probability is ~1e-8: every query must succeed.
  EXPECT_EQ(ok, kQueries) << typed_failures << " typed failures";

  FaultCounters sc = server_end->counters();
  FaultCounters cc = client_end->counters();
  EXPECT_GT(sc.sent + cc.sent, static_cast<std::uint64_t>(kQueries));

  // Server is not wedged after the chaos: clean transport, clean query.
  auto [srv2, cli2] = PipeTransport::CreatePair();
  ASSERT_TRUE(server.AttachTransport(srv2));
  ApqaClient clean(env.owner->keys(), env.creds_ab, cli2,
                   FastClientOptions());
  Record rec;
  ClientResult r = clean.Equality(Point{1}, &rec, nullptr);
  ASSERT_TRUE(r.ok()) << r.ToString();
  EXPECT_EQ(rec.value, "v1");

  server.Stop();
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, stats.served + stats.expired + stats.failed);
}

TEST(ChaosTest, IdenticalSeedsGiveIdenticalFaultDecisions) {
  // The fault schedule is a pure function of the seed: two runs over the
  // same frame sequence make byte-identical deliveries (full determinism
  // of the e2e suite additionally depends on thread interleaving, which
  // only shifts *when* retries happen, never whether corruption can pass).
  FaultSpec spec;
  spec.drop_permille = 80;
  spec.hold_permille = 40;
  spec.dup_permille = 40;
  spec.truncate_permille = 40;
  spec.corrupt_permille = 80;
  Frame f = MakeTestFrame();
  std::vector<std::uint8_t> wire = EncodeFrame(f);

  std::vector<std::vector<std::uint8_t>> first;
  for (int run = 0; run < 2; ++run) {
    auto inner = std::make_shared<RecordingTransport>();
    FaultyTransport faulty(inner, spec, /*seed=*/4242);
    for (int i = 0; i < 300; ++i) faulty.Send(wire);
    if (run == 0) {
      first = inner->delivered;
    } else {
      EXPECT_EQ(first, inner->delivered);
    }
  }
}

// --- shutdown under load ----------------------------------------------------

TEST(ShutdownTest, DrainThenStopLosesNoAcceptedRequest) {
  ServiceEnv& env = ServiceEnv::Get();
  SpServerOptions opts;
  opts.worker_threads = 2;
  opts.max_queue = 4;
  auto server = std::make_unique<SpServer>(env.sp.get(), opts);

  constexpr int kClients = 2;
  constexpr int kQueriesEach = 4;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0}, transient{0}, unexpected{0};
  for (int c = 0; c < kClients; ++c) {
    auto [server_end, client_end] = PipeTransport::CreatePair();
    ASSERT_TRUE(server->AttachTransport(server_end));
    threads.emplace_back([&, client_end = client_end] {
      ClientOptions copts = FastClientOptions();
      copts.deadline_ms = 3000;
      copts.attempt_timeout_ms = 1000;
      copts.max_attempts = 2;
      ApqaClient client(env.owner->keys(), env.creds_ab, client_end, copts);
      for (int q = 0; q < kQueriesEach; ++q) {
        Record rec;
        ClientResult r =
            client.Equality(Point{static_cast<std::uint32_t>(q % 16)}, &rec,
                            nullptr);
        switch (r.status) {
          case ClientStatus::kOk:
            ++ok;
            break;
          case ClientStatus::kRetriesExhausted:
          case ClientStatus::kDeadlineExceeded:
          case ClientStatus::kTransportClosed:
            ++transient;  // shutdown raced the query: typed, not hung
            break;
          default:
            ++unexpected;
        }
      }
    });
  }
  // Let some queries through, then stop under load.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server->Stop();
  for (auto& t : threads) t.join();

  ServerStats stats = server->stats();
  // The shutdown contract: every accepted request was answered one way.
  EXPECT_EQ(stats.accepted, stats.served + stats.expired + stats.failed);
  EXPECT_EQ(ok.load() + transient.load() + unexpected.load(),
            kClients * kQueriesEach);
  EXPECT_EQ(unexpected.load(), 0);
  // Post-stop attachments are refused.
  auto [a, b] = PipeTransport::CreatePair();
  EXPECT_FALSE(server->AttachTransport(a));
  server.reset();  // double-Stop via destructor is safe
}

// --- dynamic ADS updates over the service -----------------------------------

// A deployment with a live DO-side replica, so tests can mint authenticated
// update deltas and push them at an SpServer. Per-test (not the shared
// singleton): update tests advance epochs, which must never leak into the
// immutable ServiceEnv the query tests assume.
struct UpdateWorld {
  std::unique_ptr<core::DataOwner> owner;
  std::optional<core::GridTree> do_tree;  // the DO's replica
  std::unique_ptr<core::ServiceProvider> sp;
  core::UserCredentials creds;

  explicit UpdateWorld(std::uint64_t seed = 20260810) {
    core::Domain domain{/*dims=*/1, /*bits=*/3};
    owner = std::make_unique<core::DataOwner>(RoleSet{"RoleA", "RoleB"},
                                              domain, seed);
    do_tree = owner->BuildAds({
        Rec(1, "v1", "RoleA"),
        Rec(5, "v5", "RoleB"),
    });
    sp = std::make_unique<core::ServiceProvider>(owner->keys(), *do_tree);
    creds = owner->EnrollUser({"RoleA"});
  }

  core::SignedAdsUpdate Upsert(std::uint32_t key, const std::string& value,
                               const char* pol) {
    return owner->ApplyUpdates(
        &*do_tree, {{core::AdsUpdateOp::Kind::kUpsert, Rec(key, value, pol)}});
  }
};

TEST(UpdateFrameTest, AckPayloadRoundtripAndStrictness) {
  UpdateAck ack{core::ApplyStatus::kAlreadyApplied, 42};
  std::vector<std::uint8_t> payload = EncodeUpdateAckPayload(ack);
  UpdateAck out;
  ASSERT_TRUE(DecodeUpdateAckPayload(payload, &out));
  EXPECT_EQ(out.status, core::ApplyStatus::kAlreadyApplied);
  EXPECT_EQ(out.epoch, 42u);

  std::vector<std::uint8_t> truncated(payload.begin(), payload.end() - 1);
  EXPECT_FALSE(DecodeUpdateAckPayload(truncated, &out));
  std::vector<std::uint8_t> trailing = payload;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeUpdateAckPayload(trailing, &out));
  std::vector<std::uint8_t> bad_status = payload;
  bad_status[0] = 9;  // beyond kBadPatch
  EXPECT_FALSE(DecodeUpdateAckPayload(bad_status, &out));
}

TEST(UpdateFrameTest, UpdatePayloadRoundtripAndStrictness) {
  UpdateWorld w;
  core::SignedAdsUpdate update = w.Upsert(3, "v3", "RoleA");
  std::vector<std::uint8_t> payload = EncodeAdsUpdatePayload(update);

  core::SignedAdsUpdate out;
  ASSERT_TRUE(DecodeAdsUpdatePayload(payload, &out));
  EXPECT_EQ(out.delta.from_epoch, 0u);
  EXPECT_EQ(out.delta.to_epoch, 1u);
  EXPECT_TRUE(core::VerifyAdsUpdateAuth(w.owner->keys().mvk, out));

  std::vector<std::uint8_t> truncated(payload.begin(), payload.end() - 1);
  EXPECT_FALSE(DecodeAdsUpdatePayload(truncated, &out));
  std::vector<std::uint8_t> trailing = payload;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeAdsUpdatePayload(trailing, &out));
}

TEST(UpdateServiceTest, PushAppliesAndQueriesServeTheNewEpoch) {
  UpdateWorld w;
  auto [server_end, client_end] = PipeTransport::CreatePair();
  SpServer server(w.sp.get());
  ASSERT_TRUE(server.AttachTransport(server_end));

  DoUpdateClient pusher(client_end, FastClientOptions());
  UpdateResult ur = pusher.Push(w.Upsert(3, "v3", "RoleA"));
  ASSERT_TRUE(ur.ok()) << ur.ToString();
  EXPECT_EQ(ur.apply, core::ApplyStatus::kApplied);
  EXPECT_EQ(ur.server_epoch, 1u);
  EXPECT_EQ(ur.attempts, 1);

  // The epoch handshake: a query response now carries the new epoch, the
  // client's high-water mark rises, and the inserted record is served.
  ApqaClient client(w.owner->keys(), w.creds, client_end,
                    FastClientOptions());
  EXPECT_EQ(client.expected_epoch(), 0u);
  Record rec;
  bool accessible = false;
  ClientResult r = client.Equality(Point{3}, &rec, &accessible);
  ASSERT_TRUE(r.ok()) << r.ToString();
  EXPECT_TRUE(accessible);
  EXPECT_EQ(rec.value, "v3");
  EXPECT_EQ(client.stats().last_server_epoch, 1u);
  EXPECT_EQ(client.stats().high_water_epoch, 1u);
  EXPECT_EQ(client.expected_epoch(), 1u);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(stats.updates_rejected, 0u);
  EXPECT_EQ(stats.accepted, stats.served);
  server.Stop();
}

TEST(UpdateServiceTest, CrashedDoRetryingItsBatchIsIdempotent) {
  // A DO that crashed after sending but before recording the ack re-sends
  // the same delta on recovery; the SP must converge, not diverge or error.
  UpdateWorld w;
  auto [server_end, client_end] = PipeTransport::CreatePair();
  SpServer server(w.sp.get());
  ASSERT_TRUE(server.AttachTransport(server_end));

  core::SignedAdsUpdate update = w.Upsert(2, "v2", "RoleB");
  DoUpdateClient pusher(client_end, FastClientOptions());
  UpdateResult first = pusher.Push(update);
  ASSERT_TRUE(first.ok()) << first.ToString();
  EXPECT_EQ(first.apply, core::ApplyStatus::kApplied);

  UpdateResult retry = pusher.Push(update);
  ASSERT_TRUE(retry.ok()) << retry.ToString();
  EXPECT_EQ(retry.apply, core::ApplyStatus::kAlreadyApplied);
  EXPECT_EQ(retry.server_epoch, 1u);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(stats.updates_rejected, 0u) << "an idempotent retry is not an error";
  EXPECT_EQ(w.sp->epoch(), 1u);
  EXPECT_EQ(w.sp->tree().digest(), w.do_tree->digest());
  server.Stop();
}

TEST(UpdateServiceTest, TornReorderedAndDuplicatedFramesNeverCorruptTheTree) {
  UpdateWorld w;
  auto [server_end, client_end] = PipeTransport::CreatePair(4096);
  SpServerOptions opts;
  opts.worker_threads = 1;  // keep ack order deterministic
  opts.max_queue = 0;
  SpServer server(w.sp.get(), opts);
  ASSERT_TRUE(server.AttachTransport(server_end));

  core::SignedAdsUpdate u1 = w.Upsert(2, "v2", "RoleA");
  core::SignedAdsUpdate u2 = w.Upsert(3, "v3", "RoleB");

  auto send_update = [&](std::uint64_t id,
                         const std::vector<std::uint8_t>& payload) {
    Frame f;
    f.type = MsgType::kAdsUpdate;
    f.request_id = id;
    f.payload = payload;
    ASSERT_TRUE(client_end->Send(EncodeFrame(f)));
  };
  auto recv_ack = [&](std::uint64_t id) {
    UpdateAck ack;
    for (;;) {
      std::vector<std::uint8_t> buf;
      EXPECT_EQ(client_end->Recv(&buf, 30000), RecvStatus::kOk);
      Frame resp;
      EXPECT_EQ(DecodeFrameRaw(buf, &resp), FrameDecodeError::kOk);
      if (resp.request_id != id) continue;
      if (resp.type == MsgType::kError) {
        ErrorInfo info;
        EXPECT_TRUE(DecodeErrorPayload(resp.payload, &info));
        ack.status = core::ApplyStatus::kBadPatch;
        ack.epoch = ~0ull;  // sentinel: server refused at the payload layer
        return ack;
      }
      EXPECT_EQ(resp.type, MsgType::kUpdateAck);
      EXPECT_TRUE(DecodeUpdateAckPayload(resp.payload, &ack));
      return ack;
    }
  };

  std::vector<std::uint8_t> p1 = EncodeAdsUpdatePayload(u1);
  std::vector<std::uint8_t> p2 = EncodeAdsUpdatePayload(u2);

  // Torn payload inside a well-checksummed frame: rejected at the payload
  // layer, tree untouched.
  std::vector<std::uint8_t> torn(p1.begin(), p1.begin() + p1.size() / 2);
  send_update(1, torn);
  UpdateAck ack = recv_ack(1);
  EXPECT_EQ(ack.epoch, ~0ull);
  EXPECT_EQ(w.sp->epoch(), 0u);

  // Reordered: u2 before u1 is an epoch gap, refused without mutation.
  send_update(2, p2);
  ack = recv_ack(2);
  EXPECT_EQ(ack.status, core::ApplyStatus::kEpochGap);
  EXPECT_EQ(ack.epoch, 0u);

  // u1 applies; its duplicate is acknowledged idempotently.
  send_update(3, p1);
  ack = recv_ack(3);
  EXPECT_EQ(ack.status, core::ApplyStatus::kApplied);
  EXPECT_EQ(ack.epoch, 1u);
  send_update(4, p1);
  ack = recv_ack(4);
  EXPECT_EQ(ack.status, core::ApplyStatus::kAlreadyApplied);

  // Now u2 is in sequence and lands.
  send_update(5, p2);
  ack = recv_ack(5);
  EXPECT_EQ(ack.status, core::ApplyStatus::kApplied);
  EXPECT_EQ(ack.epoch, 2u);

  // After the hostile schedule the replica converged exactly.
  EXPECT_EQ(w.sp->epoch(), w.do_tree->epoch());
  EXPECT_EQ(w.sp->tree().digest(), w.do_tree->digest());
  server.Stop();
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.updates_applied, 2u);
  EXPECT_EQ(stats.updates_rejected, 1u);  // the epoch gap (retries don't count)
  EXPECT_EQ(stats.failed, 1u);            // the torn payload
  EXPECT_EQ(stats.accepted, stats.served + stats.expired + stats.failed);
}

TEST(UpdateServiceTest, EpochGapPushIsFatalForTheClientNotRetried) {
  UpdateWorld w;
  auto [server_end, client_end] = PipeTransport::CreatePair();
  SpServer server(w.sp.get());
  ASSERT_TRUE(server.AttachTransport(server_end));

  // discard-ok: epoch 1 is minted but deliberately never shipped; the
  // delta is dropped to leave the SP one epoch behind.
  (void)w.Upsert(2, "v2", "RoleA");             // epoch 1 never shipped
  core::SignedAdsUpdate u2 = w.Upsert(3, "v3", "RoleB");  // 1 -> 2

  DoUpdateClient pusher(client_end, FastClientOptions());
  UpdateResult r = pusher.Push(u2);
  EXPECT_EQ(r.status, ClientStatus::kServerRejected);
  EXPECT_EQ(r.apply, core::ApplyStatus::kEpochGap);
  EXPECT_EQ(r.attempts, 1) << "re-sending the same delta cannot fix a gap";
  server.Stop();
}

TEST(UpdateServiceTest, RolledBackServerFailsStaleEpochAndIsNeverRetried) {
  // The replay-robustness contract at the service layer: an SP that acked
  // epoch N and then serves epoch N-1 VOs (rollback / restored-from-backup)
  // is caught by the client's high-water mark with a *fresh* kStaleEpoch
  // verdict — fatal on the first attempt, never retried.
  UpdateWorld w;

  // Freeze an epoch-0 response, then advance the SP to epoch 1.
  common::ByteWriter w0;
  w.sp->RangeQuery(Box{Point{0}, Point{7}}, w.creds.roles).Serialize(&w0);
  std::vector<std::uint8_t> stale_payload = w0.data();
  ASSERT_EQ(w.sp->ApplyAdsUpdate(w.Upsert(3, "v3", "RoleA")),
            core::ApplyStatus::kApplied);
  common::ByteWriter w1;
  w.sp->RangeQuery(Box{Point{0}, Point{7}}, w.creds.roles).Serialize(&w1);
  std::vector<std::uint8_t> fresh_payload = w1.data();

  // Scripted SP: first answer is fresh (epoch 1), everything after replays
  // the stale epoch-0 bytes.
  auto [server_end, client_end] = PipeTransport::CreatePair();
  std::atomic<int> answered{0};
  ScriptedSp sp(server_end, [&](const Frame&) {
    Frame resp;
    resp.type = MsgType::kVoResponse;
    resp.payload = answered.fetch_add(1) == 0 ? fresh_payload : stale_payload;
    return resp;
  });

  ApqaClient client(w.owner->keys(), w.creds, client_end,
                    FastClientOptions());
  std::vector<Record> rows;
  ClientResult r = client.Range(Box{Point{0}, Point{7}}, &rows);
  ASSERT_TRUE(r.ok()) << r.ToString();
  EXPECT_EQ(client.stats().high_water_epoch, 1u);

  r = client.Range(Box{Point{0}, Point{7}}, &rows);
  EXPECT_EQ(r.status, ClientStatus::kVerifyRejected);
  EXPECT_EQ(r.verify.code, core::VerifyCode::kStaleEpoch) << r.ToString();
  EXPECT_EQ(r.attempts, 1) << "kStaleEpoch must never be retried";
  EXPECT_EQ(client.stats().stale_epoch_rejections, 1u);
  EXPECT_EQ(client.stats().last_server_epoch, 0u);  // what the SP claimed
  EXPECT_EQ(client.stats().high_water_epoch, 1u);   // the mark never drops
}

TEST(UpdateServiceTest, MinEpochOptionRejectsAStaleDeploymentUpFront) {
  // A client configured with out-of-band freshness knowledge (min_epoch)
  // rejects a lagging SP on the very first query.
  UpdateWorld w;
  auto [server_end, client_end] = PipeTransport::CreatePair();
  SpServer server(w.sp.get());  // still at epoch 0
  ASSERT_TRUE(server.AttachTransport(server_end));

  ClientOptions opts = FastClientOptions();
  opts.min_epoch = 1;
  ApqaClient client(w.owner->keys(), w.creds, client_end, opts);
  Record rec;
  ClientResult r = client.Equality(Point{1}, &rec, nullptr);
  EXPECT_EQ(r.status, ClientStatus::kVerifyRejected);
  EXPECT_EQ(r.verify.code, core::VerifyCode::kStaleEpoch) << r.ToString();
  EXPECT_EQ(r.attempts, 1);
  server.Stop();
}

// --- update/query interleaving chaos (also the TSan interleaving target) ----

TEST(UpdateChaosTest, ConcurrentUpdatesAndQueriesStayCoherent) {
  UpdateWorld w;
  SpServer server(w.sp.get());

  FaultSpec spec;
  spec.drop_permille = 20;
  spec.hold_permille = 10;
  spec.dup_permille = 10;
  spec.truncate_permille = 10;
  spec.corrupt_permille = 20;

  auto [do_server_pipe, do_client_pipe] = PipeTransport::CreatePair(4096);
  auto [q_server_pipe, q_client_pipe] = PipeTransport::CreatePair(4096);
  auto do_server_end =
      std::make_shared<FaultyTransport>(do_server_pipe, spec, /*seed=*/303);
  auto do_client_end =
      std::make_shared<FaultyTransport>(do_client_pipe, spec, /*seed=*/404);
  auto q_server_end =
      std::make_shared<FaultyTransport>(q_server_pipe, spec, /*seed=*/505);
  auto q_client_end =
      std::make_shared<FaultyTransport>(q_client_pipe, spec, /*seed=*/606);
  ASSERT_TRUE(server.AttachTransport(do_server_end));
  ASSERT_TRUE(server.AttachTransport(q_server_end));

  ClientOptions copts = FastClientOptions();
  copts.attempt_timeout_ms = 4000;
  copts.deadline_ms = 36000;

  // DO thread: a sequence of epoch-advancing batches over the faulty link.
  // Idempotent acks make the retry loop safe against duplicated/lost frames.
  constexpr int kUpdates = 3;
  std::atomic<int> pushed{0};
  std::thread do_thread([&] {
    DoUpdateClient pusher(do_client_end, copts);
    for (int i = 0; i < kUpdates; ++i) {
      core::SignedAdsUpdate u =
          w.Upsert(static_cast<std::uint32_t>(2 + i), "u" + std::to_string(i),
                   i % 2 == 0 ? "RoleA" : "RoleB");
      UpdateResult r = pusher.Push(u);
      ASSERT_TRUE(r.ok()) << "update " << i << ": " << r.ToString();
      pushed.fetch_add(1);
    }
  });

  // User thread (this one): interleaved verifying queries. Every response
  // must either verify or fail as a typed transient; a kVerifyRejected here
  // would mean an interleaving let a half-applied tree serve a query.
  ApqaClient client(w.owner->keys(), w.creds, q_client_end, copts);
  int ok = 0;
  constexpr int kQueries = 10;
  for (int i = 0; i < kQueries; ++i) {
    ClientResult r;
    if (i % 2 == 0) {
      std::vector<Record> rows;
      r = client.Range(Box{Point{0}, Point{7}}, &rows);
    } else {
      Record rec;
      bool accessible = false;
      r = client.Equality(Point{static_cast<std::uint32_t>(i % 8)}, &rec,
                          &accessible);
    }
    if (r.ok()) {
      ++ok;
    } else {
      ASSERT_TRUE(r.status == ClientStatus::kRetriesExhausted ||
                  r.status == ClientStatus::kDeadlineExceeded)
          << r.ToString();
    }
  }
  do_thread.join();
  EXPECT_EQ(pushed.load(), kUpdates);
  EXPECT_GT(ok, 0);

  // Convergence: after the storm the SP replica is byte-equivalent to the
  // DO's tree and serves a verifying query at the final epoch.
  server.Stop();
  EXPECT_EQ(w.sp->epoch(), w.do_tree->epoch());
  EXPECT_EQ(w.sp->tree().digest(), w.do_tree->digest());
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, stats.served + stats.expired + stats.failed);

  core::Rng vrng(77);
  core::Vo vo = core::BuildRangeVo(*w.do_tree, w.owner->keys().mvk,
                                   Box{Point{0}, Point{7}}, w.creds.roles,
                                   w.owner->keys().universe, &vrng);
  core::VerifyContext ctx(w.owner->keys().mvk, w.owner->keys().domain,
                          w.creds.roles, w.owner->keys().universe);
  ctx.expected_epoch = w.do_tree->epoch();
  core::VerifyResult vr =
      core::VerifyRangeVo(ctx, Box{Point{0}, Point{7}}, vo, nullptr);
  EXPECT_TRUE(vr.ok()) << vr.ToString();
}

// --- TCP transport ----------------------------------------------------------

TEST(TcpTransportTest, QueryOverRealSockets) {
  ServiceEnv& env = ServiceEnv::Get();
  TcpListener listener(/*port=*/0);  // ephemeral
  ASSERT_TRUE(listener.ok());
  ASSERT_NE(listener.port(), 0);

  SpServer server(env.sp.get());
  std::thread acceptor([&] {
    auto conn = listener.Accept(10000);
    if (conn != nullptr) server.AttachTransport(std::move(conn));
  });

  auto transport =
      SocketTransport::Connect("127.0.0.1", listener.port(), 2000);
  ASSERT_NE(transport, nullptr);
  acceptor.join();

  ApqaClient client(env.owner->keys(), env.creds_c,
                    std::shared_ptr<Transport>(std::move(transport)),
                    FastClientOptions());
  Record rec;
  bool accessible = false;
  ClientResult r = client.Equality(Point{4}, &rec, &accessible);
  ASSERT_TRUE(r.ok()) << r.ToString();
  EXPECT_TRUE(accessible);
  EXPECT_EQ(rec.value, "v4");

  std::vector<Record> rows;
  r = client.Range(Box{Point{0}, Point{15}}, &rows);
  ASSERT_TRUE(r.ok()) << r.ToString();
  EXPECT_EQ(rows.size(), 2u);  // v4 and v7; v12 needs RoleB too
  server.Stop();
}

TEST(TcpTransportTest, CloseWhileBlockedInRecvUnblocksCleanly) {
  // Same contract as the pipe version, over real sockets: Close() uses
  // shutdown(2), so a peer parked in recv() wakes with a clean kClosed
  // instead of waiting out its timeout (or racing the fd teardown — the
  // destructor only close(2)s after Close() has already shut the socket
  // down, which TSan verifies here).
  for (bool close_own_side : {false, true}) {
    TcpListener listener(0);
    ASSERT_TRUE(listener.ok());
    std::shared_ptr<SocketTransport> server_side;
    std::thread acceptor([&] { server_side = listener.Accept(10000); });
    auto client_side = std::shared_ptr<SocketTransport>(
        SocketTransport::Connect("127.0.0.1", listener.port(), 2000));
    ASSERT_NE(client_side, nullptr);
    acceptor.join();
    ASSERT_NE(server_side, nullptr);

    std::atomic<bool> entered{false};
    RecvStatus status = RecvStatus::kOk;
    std::thread receiver([&] {
      std::vector<std::uint8_t> buf;
      entered.store(true);
      status = server_side->Recv(&buf, /*timeout_ms=*/30000);
    });
    while (!entered.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto t0 = std::chrono::steady_clock::now();
    (close_own_side ? server_side : client_side)->Close();
    receiver.join();
    auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);
    EXPECT_EQ(status, RecvStatus::kClosed) << "own side: " << close_own_side;
    EXPECT_LT(waited.count(), 5000) << "Close() must wake the blocked recv";
  }
}

TEST(TcpTransportTest, StallMidFrameTimesOutThenResumes) {
  // A peer that stalls inside a frame costs the reader a kTimeout, never the
  // bytes already read: the next Recv resumes the same frame. Covers a stall
  // inside the header and one inside the body.
  Frame f;
  f.type = MsgType::kRangeQuery;
  f.request_id = 42;
  f.payload = std::vector<std::uint8_t>(64, 0xAB);
  const std::vector<std::uint8_t> wire = EncodeFrame(f);
  for (std::size_t split : {kFrameHeaderBytes / 2, kFrameHeaderBytes + 20}) {
    TcpListener listener(0);
    ASSERT_TRUE(listener.ok());
    std::unique_ptr<SocketTransport> server_side;
    std::thread acceptor([&] { server_side = listener.Accept(10000); });
    auto client_side =
        SocketTransport::Connect("127.0.0.1", listener.port(), 2000);
    ASSERT_NE(client_side, nullptr);
    acceptor.join();
    ASSERT_NE(server_side, nullptr);

    ASSERT_TRUE(client_side->Send(
        std::vector<std::uint8_t>(wire.begin(), wire.begin() + split)));
    std::vector<std::uint8_t> got;
    EXPECT_EQ(server_side->Recv(&got, /*timeout_ms=*/50), RecvStatus::kTimeout)
        << "split at " << split;
    ASSERT_TRUE(client_side->Send(
        std::vector<std::uint8_t>(wire.begin() + split, wire.end())));
    ASSERT_EQ(server_side->Recv(&got, /*timeout_ms=*/5000), RecvStatus::kOk)
        << "split at " << split;
    EXPECT_EQ(got, wire) << "split at " << split;
  }
}

TEST(TcpTransportTest, ClosedConnectionSurfacesAsTransportClosed) {
  ServiceEnv& env = ServiceEnv::Get();
  TcpListener listener(0);
  ASSERT_TRUE(listener.ok());
  std::unique_ptr<SocketTransport> server_side;
  std::thread acceptor([&] { server_side = listener.Accept(10000); });
  auto transport = SocketTransport::Connect("127.0.0.1", listener.port(), 2000);
  ASSERT_NE(transport, nullptr);
  acceptor.join();
  ASSERT_NE(server_side, nullptr);
  server_side->Close();  // server vanishes without answering

  ClientOptions opts = FastClientOptions();
  opts.attempt_timeout_ms = 200;
  ApqaClient client(env.owner->keys(), env.creds_ab,
                    std::shared_ptr<Transport>(std::move(transport)), opts);
  ClientResult r = client.Equality(Point{1}, nullptr, nullptr);
  EXPECT_EQ(r.status, ClientStatus::kTransportClosed);
}

}  // namespace
}  // namespace apqa::net
