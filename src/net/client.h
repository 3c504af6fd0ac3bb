// ApqaClient: a verifying query client with deadlines and retries.
//
// Every query runs under a total deadline budget. Attempts are paced by
// decorrelated-jitter backoff (net/backoff.h) and each attempt sends one
// frame and waits for the matching request id, discarding stale or
// corrupt arrivals.
//
// The retry taxonomy is driven by *where* a response fails:
//
//   retryable (transient, the network/server may recover)
//     - send failure, receive timeout, transport error
//     - frames that fail checksum or frame decoding (corruption/truncation)
//     - kError responses with a retryable code (RETRY_LATER, SHUTTING_DOWN,
//       DEADLINE_EXCEEDED) — RETRY_LATER's backoff hint floors the next delay
//
//   fatal (retrying cannot help, or must not happen)
//     - kError responses with kBadRequest/kInternal      → kServerRejected
//     - a response that *parses* but fails VO soundness/ completeness
//       verification                                     → kVerifyRejected
//
// The last rule is the security-critical one: a malicious SP handing out
// forged VOs must surface immediately as a verification failure, not turn
// the client into a retry storm that hammers the service and hides the
// compromise inside timeout noise.
#ifndef APQA_NET_CLIENT_H_
#define APQA_NET_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/system.h"
#include "core/verify_result.h"
#include "net/backoff.h"
#include "net/frame.h"
#include "net/transport.h"

namespace apqa::net {

struct ClientOptions {
  std::uint32_t deadline_ms = 2000;       // total budget per query
  std::uint32_t attempt_timeout_ms = 500; // cap on a single attempt
  int max_attempts = 4;
  BackoffSpec backoff;
  std::uint64_t backoff_seed = 0x5eed;
  // Minimum ADS epoch the client accepts. VOs stamped below
  // max(min_epoch, high-water epoch) fail with kStaleEpoch — fatal, never
  // retried: a stale VO is a replaying/lagging SP, and hammering it with
  // retries would only hide the problem inside timeout noise.
  std::uint64_t min_epoch = 0;
};

enum class ClientStatus : std::uint8_t {
  kOk = 0,
  kDeadlineExceeded,  // budget exhausted before a verified response
  kRetriesExhausted,  // max_attempts transient failures inside the budget
  kVerifyRejected,    // response parsed but failed verification — FATAL
  kServerRejected,    // server answered with a non-retryable error
  kTransportClosed,   // connection is gone
};
const char* ClientStatusName(ClientStatus s);

// Observability counters; epoch fields implement the freshness handshake.
struct ClientStats {
  // Epoch of the last structurally valid VO response (even one that later
  // failed verification) — what the server *claims* to serve at.
  std::uint64_t last_server_epoch = 0;
  // Monotone high-water mark over *verified* responses; future queries
  // require at least this epoch, so a server cannot silently roll back.
  std::uint64_t high_water_epoch = 0;
  std::uint64_t stale_epoch_rejections = 0;  // kStaleEpoch verdicts seen
};

struct ClientResult {
  ClientStatus status = ClientStatus::kRetriesExhausted;
  core::VerifyResult verify;  // why verification failed (kVerifyRejected)
  ErrorInfo server_error;     // what the server said (kServerRejected)
  int attempts = 0;
  std::uint32_t backoff_total_ms = 0;
  std::string detail;

  bool ok() const { return status == ClientStatus::kOk; }
  std::string ToString() const;
};

// The deadline/attempt/backoff loop ApqaClient and DoUpdateClient share.
// Each attempt sends one fresh frame and waits, within the attempt's slice
// of the deadline, for the reply carrying its request id; corrupt and stale
// frames are skipped. Retryable error frames end the attempt; fatal ones end
// the call with kServerRejected and `server_error`. Every other reply goes
// to the caller's handler, which either settles the call (sets the status
// and returns true) or ends the attempt as retryable (returns false).
class AttemptLoop {
 public:
  using ReplyHandler =
      std::function<bool(const common::Untrusted<Frame>&, ClientResult*)>;

  AttemptLoop(std::shared_ptr<Transport> t, ClientOptions o)
      : transport(std::move(t)), opts(o) {}

  ClientResult Run(MsgType type, const std::vector<std::uint8_t>& payload,
                   const ReplyHandler& on_reply);

  std::shared_ptr<Transport> transport;
  ClientOptions opts;
  Clock clock;

 private:
  std::uint64_t next_request_id_ = 1;
};

class ApqaClient {
 public:
  ApqaClient(core::SystemKeys keys, core::UserCredentials creds,
             std::shared_ptr<Transport> transport, ClientOptions opts = {});

  // On kOk: `result`/`accessible` as in core::User::VerifyEquality.
  ClientResult Equality(const core::Point& key, core::Record* result,
                        bool* accessible);
  ClientResult Range(const core::Box& range,
                     std::vector<core::Record>* results);
  // The two-table join: one record per table for each result tuple.
  ClientResult Join(const core::Box& range,
                    std::vector<std::vector<core::Record>>* results);

  const ClientStats& stats() const { return stats_; }
  // The epoch floor applied to the next query's verification.
  std::uint64_t expected_epoch() const;

  // Failover support (net/replica_client.h): repoints the client at another
  // replica's transport. Epoch state (high-water mark) deliberately stays —
  // it is the cross-replica rollback detector: a replica serving below the
  // mark established on its peer fails kStaleEpoch, not silently.
  void SetTransport(std::shared_ptr<Transport> transport) {
    loop_.transport = std::move(transport);
  }
  // Per-query deadline override, so a failover policy can hand each
  // endpoint a slice of its total budget.
  void set_deadline_ms(std::uint32_t deadline_ms) {
    loop_.opts.deadline_ms = deadline_ms;
  }

  // Test seams: inject a fake millisecond clock / sleep so deadline and
  // backoff schedules are deterministic in tests. Defaults: steady_clock /
  // this_thread::sleep_for.
  void SetClockForTest(std::function<std::uint64_t()> now_ms) {
    loop_.clock.now_ms = std::move(now_ms);
  }
  void SetSleepForTest(std::function<void(std::uint32_t)> sleep_ms) {
    loop_.clock.sleep_ms = std::move(sleep_ms);
  }

 private:
  // The one query path: sends `req`, then per reply checks the response
  // type, parses the VO with `decode`, notes the claimed epoch, verifies
  // with `verify` and notes the outcome. A VO that does not parse ends the
  // attempt (retryable); a wrong response type or a failed verification is
  // fatal.
  template <typename Decode, typename Verify>
  ClientResult Query(const QueryRequest& req, MsgType response_type,
                     Decode decode, Verify verify);
  // The verification context of the next query: the user's roles and the
  // current expected_epoch().
  core::VerifyContext Context() const;

  core::SystemKeys keys_;
  core::UserCredentials creds_;
  AttemptLoop loop_;
  ClientStats stats_;
};

// Outcome of a DO-side update push.
struct UpdateResult {
  ClientStatus status = ClientStatus::kRetriesExhausted;
  core::ApplyStatus apply = core::ApplyStatus::kBadPatch;
  std::uint64_t server_epoch = 0;  // from the ack, when one arrived
  int attempts = 0;
  std::string detail;

  // kAlreadyApplied is success: it is exactly what a retried frame whose
  // first ack was lost looks like, and the SP state is what the DO wanted.
  bool ok() const {
    return status == ClientStatus::kOk &&
           (apply == core::ApplyStatus::kApplied ||
            apply == core::ApplyStatus::kAlreadyApplied);
  }
  std::string ToString() const;
};

// DO-side update pusher: ships a SignedAdsUpdate to the SP and waits for
// the matching ack, retrying transient transport failures with the same
// deadline/backoff discipline as ApqaClient. Safe to call again with the
// same delta after a crash or lost ack — the SP answers kAlreadyApplied.
class DoUpdateClient {
 public:
  DoUpdateClient(std::shared_ptr<Transport> transport, ClientOptions opts = {});

  UpdateResult Push(const core::SignedAdsUpdate& update);

  void SetClockForTest(std::function<std::uint64_t()> now_ms) {
    loop_.clock.now_ms = std::move(now_ms);
  }
  void SetSleepForTest(std::function<void(std::uint32_t)> sleep_ms) {
    loop_.clock.sleep_ms = std::move(sleep_ms);
  }

 private:
  AttemptLoop loop_;
};

}  // namespace apqa::net

#endif  // APQA_NET_CLIENT_H_
