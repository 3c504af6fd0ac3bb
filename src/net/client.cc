#include "net/client.h"

#include <algorithm>
#include <cstdint>

#include "common/serde.h"
#include "core/equality.h"
#include "core/join_query.h"
#include "core/range_query.h"

namespace apqa::net {

namespace {

// The epoch a response VO claims to be served at; a join is served at the
// oldest of its tables' epochs.
std::uint64_t ClaimedEpoch(const core::Vo& vo) { return vo.stamp.epoch; }
std::uint64_t ClaimedEpoch(const core::JoinVo& vo) {
  std::uint64_t epoch = UINT64_MAX;
  for (const core::EpochStamp& stamp : vo.stamps) {
    epoch = std::min(epoch, stamp.epoch);
  }
  return epoch;
}

}  // namespace

const char* ClientStatusName(ClientStatus s) {
  switch (s) {
    case ClientStatus::kOk: return "ok";
    case ClientStatus::kDeadlineExceeded: return "deadline-exceeded";
    case ClientStatus::kRetriesExhausted: return "retries-exhausted";
    case ClientStatus::kVerifyRejected: return "verify-rejected";
    case ClientStatus::kServerRejected: return "server-rejected";
    case ClientStatus::kTransportClosed: return "transport-closed";
  }
  return "?";
}

std::string ClientResult::ToString() const {
  std::string s = ClientStatusName(status);
  s += " after " + std::to_string(attempts) + " attempt(s)";
  if (status == ClientStatus::kVerifyRejected) {
    s += ": " + verify.ToString();
  } else if (status == ClientStatus::kServerRejected) {
    s += ": server said ";
    s += RpcErrorCodeName(server_error.code);
    if (!server_error.detail.empty()) s += " (" + server_error.detail + ")";
  }
  if (!detail.empty()) s += " [" + detail + "]";
  return s;
}

ClientResult AttemptLoop::Run(MsgType type,
                              const std::vector<std::uint8_t>& payload,
                              const ReplyHandler& on_reply) {
  ClientResult result;
  DeadlineBudget budget(opts.deadline_ms, clock.now_ms());
  DecorrelatedJitterBackoff backoff(opts.backoff, opts.backoff_seed);

  for (int attempt = 1; attempt <= opts.max_attempts; ++attempt) {
    std::uint32_t remaining = budget.RemainingMs(clock.now_ms());
    if (remaining == 0) {
      result.status = ClientStatus::kDeadlineExceeded;
      return result;
    }
    result.attempts = attempt;
    std::uint32_t attempt_ms = std::min(remaining, opts.attempt_timeout_ms);

    Frame f;
    f.type = type;
    f.request_id = next_request_id_++;
    f.deadline_ms = attempt_ms;
    f.payload = payload;

    std::uint32_t retry_hint_ms = 0;
    bool transport_closed = false;

    if (!transport->Send(EncodeFrame(f))) {
      transport_closed = true;
    } else {
      DeadlineBudget attempt_budget(attempt_ms, clock.now_ms());
      std::vector<std::uint8_t> buf;
      for (;;) {
        std::uint32_t left = attempt_budget.RemainingMs(clock.now_ms());
        if (left == 0) break;  // attempt timed out → retryable
        RecvStatus st = transport->Recv(&buf, left);
        if (st == RecvStatus::kTimeout) continue;  // loop re-checks budget
        if (st == RecvStatus::kClosed) {
          transport_closed = true;
          break;
        }
        if (st == RecvStatus::kError) break;  // retryable
        common::Untrusted<Frame> resp;
        if (DecodeFrame(buf, &resp) != FrameDecodeError::kOk) {
          // Corrupt or truncated frame: discard and keep listening — a
          // clean duplicate may still arrive within this attempt.
          continue;
        }
        if (FrameRequestId(resp) != f.request_id) continue;  // stale attempt
        if (FrameType(resp) == MsgType::kError) {
          ErrorInfo info;
          if (!DecodeErrorPayload(resp, &info)) continue;
          if (RpcErrorRetryable(info.code)) {
            retry_hint_ms = info.backoff_hint_ms;
            break;  // retryable server condition
          }
          result.status = ClientStatus::kServerRejected;
          result.server_error = info;
          return result;
        }
        if (on_reply(resp, &result)) return result;
        break;  // unusable reply → retryable
      }
    }

    if (transport_closed) {
      result.status = ClientStatus::kTransportClosed;
      return result;
    }
    if (attempt == opts.max_attempts) break;

    remaining = budget.RemainingMs(clock.now_ms());
    std::uint32_t delay = backoff.NextDelayMs(retry_hint_ms, remaining);
    if (remaining == 0 || delay >= remaining) {
      // Sleeping through the rest of the budget cannot succeed; surface
      // the deadline instead of a doomed final attempt.
      result.status = ClientStatus::kDeadlineExceeded;
      return result;
    }
    clock.sleep_ms(delay);
    result.backoff_total_ms += delay;
  }

  result.status = ClientStatus::kRetriesExhausted;
  return result;
}

ApqaClient::ApqaClient(core::SystemKeys keys, core::UserCredentials creds,
                       std::shared_ptr<Transport> transport,
                       ClientOptions opts)
    : keys_(std::move(keys)),
      creds_(std::move(creds)),
      loop_(std::move(transport), opts) {}

std::uint64_t ApqaClient::expected_epoch() const {
  return std::max(loop_.opts.min_epoch, stats_.high_water_epoch);
}

core::VerifyContext ApqaClient::Context() const {
  core::VerifyContext ctx(keys_.mvk, keys_.domain, creds_.roles,
                          keys_.universe);
  ctx.expected_epoch = expected_epoch();
  return ctx;
}

template <typename Decode, typename Verify>
ClientResult ApqaClient::Query(const QueryRequest& req, MsgType response_type,
                               Decode decode, Verify verify) {
  auto on_reply = [&](const common::Untrusted<Frame>& response,
                      ClientResult* out) {
    MsgType type = FrameType(response);
    if (type != response_type) {
      // A well-checksummed frame of the wrong type with our request id is
      // a protocol violation by the SP, not line noise: fatal.
      out->status = ClientStatus::kVerifyRejected;
      out->verify = core::VerifyResult::Fail(core::VerifyCode::kMalformedVo,
                                             "unexpected response type");
      out->detail = MsgTypeName(type);
      return true;
    }
    // untrusted-ok: the reader feeds the VO decoder, which hands the VO
    // straight back inside a taint wrapper.
    common::ByteReader r(response.Unvalidated().payload);
    auto vo = decode(&r);
    if (!r.ok() || !r.AtEnd()) return false;  // mangled VO bytes → retryable
    // untrusted-ok: observability of the *claimed* epoch only; the trust
    // decision is the verified outcome below.
    std::uint64_t claimed_epoch = ClaimedEpoch(vo.Unvalidated());
    stats_.last_server_epoch = claimed_epoch;
    core::VerifyResult verdict = verify(Context(), vo);
    if (!verdict.ok()) {
      if (verdict.code == core::VerifyCode::kStaleEpoch) {
        ++stats_.stale_epoch_rejections;
      }
      out->status = ClientStatus::kVerifyRejected;
      out->verify = std::move(verdict);
      return true;
    }
    stats_.high_water_epoch = std::max(stats_.high_water_epoch, claimed_epoch);
    out->status = ClientStatus::kOk;
    return true;
  };
  return loop_.Run(req.type, EncodeQueryPayload(req), on_reply);
}

ClientResult ApqaClient::Equality(const core::Point& key, core::Record* result,
                                  bool* accessible) {
  QueryRequest req;
  req.type = MsgType::kEqualityQuery;
  req.key = key;
  req.roles = creds_.roles;
  return Query(
      req, MsgType::kVoResponse,
      [](common::ByteReader* r) { return core::Vo::Deserialize(r); },
      [&](const core::VerifyContext& ctx,
          const common::Untrusted<core::Vo>& vo) {
        return core::VerifyEqualityVo(ctx, key, vo, result, accessible);
      });
}

ClientResult ApqaClient::Range(const core::Box& range,
                               std::vector<core::Record>* results) {
  QueryRequest req;
  req.type = MsgType::kRangeQuery;
  req.range = range;
  req.roles = creds_.roles;
  return Query(
      req, MsgType::kVoResponse,
      [](common::ByteReader* r) { return core::Vo::Deserialize(r); },
      [&](const core::VerifyContext& ctx,
          const common::Untrusted<core::Vo>& vo) {
        if (results != nullptr) results->clear();
        return core::VerifyRangeVo(ctx, range, vo, results);
      });
}

ClientResult ApqaClient::Join(const core::Box& range,
                              std::vector<std::vector<core::Record>>* results) {
  QueryRequest req;
  req.type = MsgType::kJoinQuery;
  req.range = range;
  req.roles = creds_.roles;
  return Query(
      req, MsgType::kJoinVoResponse,
      [](common::ByteReader* r) { return core::JoinVo::Deserialize(r, 2); },
      [&](const core::VerifyContext& ctx,
          const common::Untrusted<core::JoinVo>& vo) {
        if (results != nullptr) results->clear();
        return core::VerifyJoinVo(ctx, range, 2, vo, results);
      });
}

std::string UpdateResult::ToString() const {
  std::string s = ClientStatusName(status);
  s += " after " + std::to_string(attempts) + " attempt(s)";
  if (status == ClientStatus::kOk || status == ClientStatus::kServerRejected) {
    s += ": apply=";
    s += core::ApplyStatusName(apply);
    s += " server_epoch=" + std::to_string(server_epoch);
  }
  if (!detail.empty()) s += " [" + detail + "]";
  return s;
}

DoUpdateClient::DoUpdateClient(std::shared_ptr<Transport> transport,
                               ClientOptions opts)
    : loop_(std::move(transport), opts) {}

UpdateResult DoUpdateClient::Push(const core::SignedAdsUpdate& update) {
  UpdateResult result;
  bool acked = false;  // an ack (or a wrong-type reply) settled the push
  auto on_reply = [&](const common::Untrusted<Frame>& response,
                      ClientResult* out) {
    MsgType type = FrameType(response);
    if (type != MsgType::kUpdateAck) {
      acked = true;
      out->status = ClientStatus::kServerRejected;
      out->detail = std::string("unexpected response type ") +
                    MsgTypeName(type);
      return true;
    }
    UpdateAck ack;
    if (!DecodeUpdateAckPayload(response, &ack)) {
      // A mangled ack says nothing about whether the delta landed; the
      // retry is safe because a landed delta re-acks kAlreadyApplied.
      return false;
    }
    acked = true;
    result.apply = ack.status;
    result.server_epoch = ack.epoch;
    if (ack.status == core::ApplyStatus::kApplied ||
        ack.status == core::ApplyStatus::kAlreadyApplied) {
      out->status = ClientStatus::kOk;
      return true;
    }
    // kEpochGap / kBadPatch: the SP examined the delta and refused it.
    // Re-sending the same bytes cannot change the verdict — fatal.
    out->status = ClientStatus::kServerRejected;
    out->detail = core::ApplyStatusName(ack.status);
    return true;
  };
  ClientResult sent = loop_.Run(MsgType::kAdsUpdate,
                                EncodeAdsUpdatePayload(update), on_reply);
  result.status = sent.status;
  result.attempts = sent.attempts;
  result.detail = sent.detail;
  if (sent.status == ClientStatus::kServerRejected && !acked) {
    // Refused by a fatal error frame.
    result.detail = RpcErrorCodeName(sent.server_error.code);
    if (!sent.server_error.detail.empty()) {
      result.detail += ": " + sent.server_error.detail;
    }
  }
  return result;
}

}  // namespace apqa::net
