#include "net/client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/serde.h"
#include "core/equality.h"
#include "core/join_query.h"
#include "core/range_query.h"

namespace apqa::net {

namespace {

std::uint64_t SteadyNowMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
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

ApqaClient::ApqaClient(core::SystemKeys keys, core::UserCredentials creds,
                       std::shared_ptr<Transport> transport,
                       ClientOptions opts)
    : keys_(std::move(keys)),
      creds_(std::move(creds)),
      transport_(std::move(transport)),
      opts_(opts),
      now_ms_(SteadyNowMs),
      sleep_ms_([](std::uint32_t ms) {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      }) {}

void ApqaClient::SetClockForTest(std::function<std::uint64_t()> now_ms) {
  now_ms_ = std::move(now_ms);
}

void ApqaClient::SetSleepForTest(std::function<void(std::uint32_t)> sleep_ms) {
  sleep_ms_ = std::move(sleep_ms);
}

std::uint64_t ApqaClient::expected_epoch() const {
  return std::max(opts_.min_epoch, stats_.high_water_epoch);
}

core::VerifyContext ApqaClient::Context() const {
  core::VerifyContext ctx(keys_.mvk, keys_.domain, creds_.roles,
                          keys_.universe);
  ctx.expected_epoch = expected_epoch();
  return ctx;
}

void ApqaClient::NoteResponseEpoch(std::uint64_t epoch) {
  stats_.last_server_epoch = epoch;
}

void ApqaClient::NoteVerifyOutcome(const core::VerifyResult& verify,
                                   std::uint64_t epoch) {
  if (verify.ok()) {
    if (epoch > stats_.high_water_epoch) stats_.high_water_epoch = epoch;
  } else if (verify.code == core::VerifyCode::kStaleEpoch) {
    ++stats_.stale_epoch_rejections;
  }
}

ClientResult ApqaClient::Equality(const core::Point& key, core::Record* result,
                                  bool* accessible) {
  QueryRequest req;
  req.type = MsgType::kEqualityQuery;
  req.key = key;
  req.roles = creds_.roles;
  auto handle = [&](const common::Untrusted<Frame>& response) {
    PayloadOutcome out;
    // untrusted-ok: the reader feeds Vo::Deserialize, which hands the VO
    // straight back inside a taint wrapper.
    common::ByteReader r(response.Unvalidated().payload);
    common::Untrusted<core::Vo> vo = core::Vo::Deserialize(&r);
    if (!r.ok() || !r.AtEnd()) return out;
    out.wire_ok = true;
    // untrusted-ok: observability of the *claimed* epoch only; the trust
    // decision is the verified outcome below.
    std::uint64_t claimed_epoch = vo.Unvalidated().stamp.epoch;
    NoteResponseEpoch(claimed_epoch);
    out.verify =
        core::VerifyEqualityVo(Context(), key, vo, result, accessible);
    NoteVerifyOutcome(out.verify, claimed_epoch);
    return out;
  };
  return RunQuery(MsgType::kEqualityQuery, EncodeQueryPayload(req),
                  MsgType::kVoResponse, handle);
}

ClientResult ApqaClient::Range(const core::Box& range,
                               std::vector<core::Record>* results) {
  QueryRequest req;
  req.type = MsgType::kRangeQuery;
  req.range = range;
  req.roles = creds_.roles;
  auto handle = [&](const common::Untrusted<Frame>& response) {
    PayloadOutcome out;
    // untrusted-ok: the reader feeds Vo::Deserialize, which hands the VO
    // straight back inside a taint wrapper.
    common::ByteReader r(response.Unvalidated().payload);
    common::Untrusted<core::Vo> vo = core::Vo::Deserialize(&r);
    if (!r.ok() || !r.AtEnd()) return out;
    out.wire_ok = true;
    if (results != nullptr) results->clear();
    // untrusted-ok: observability of the *claimed* epoch only; the trust
    // decision is the verified outcome below.
    std::uint64_t claimed_epoch = vo.Unvalidated().stamp.epoch;
    NoteResponseEpoch(claimed_epoch);
    out.verify = core::VerifyRangeVo(Context(), range, vo, results);
    NoteVerifyOutcome(out.verify, claimed_epoch);
    return out;
  };
  return RunQuery(MsgType::kRangeQuery, EncodeQueryPayload(req),
                  MsgType::kVoResponse, handle);
}

ClientResult ApqaClient::Join(
    const core::Box& range,
    std::vector<std::pair<core::Record, core::Record>>* results) {
  QueryRequest req;
  req.type = MsgType::kJoinQuery;
  req.range = range;
  req.roles = creds_.roles;
  auto handle = [&](const common::Untrusted<Frame>& response) {
    PayloadOutcome out;
    // untrusted-ok: the reader feeds JoinVo::Deserialize, which hands the VO
    // straight back inside a taint wrapper.
    common::ByteReader r(response.Unvalidated().payload);
    common::Untrusted<core::JoinVo> vo = core::JoinVo::Deserialize(&r);
    if (!r.ok() || !r.AtEnd()) return out;
    out.wire_ok = true;
    if (results != nullptr) results->clear();
    // The server serves at the older of the two table epochs.
    // untrusted-ok: observability of the *claimed* epoch only; the trust
    // decision is the verified outcome below.
    std::uint64_t claimed_epoch = std::min(vo.Unvalidated().r_stamp.epoch,
                                           vo.Unvalidated().s_stamp.epoch);
    NoteResponseEpoch(claimed_epoch);
    out.verify = core::VerifyJoinVo(Context(), range, vo, results);
    NoteVerifyOutcome(out.verify, claimed_epoch);
    return out;
  };
  return RunQuery(MsgType::kJoinQuery, EncodeQueryPayload(req),
                  MsgType::kJoinVoResponse, handle);
}

ClientResult ApqaClient::RunQuery(MsgType type,
                                  const std::vector<std::uint8_t>& payload,
                                  MsgType expected_response,
                                  const PayloadHandler& handle) {
  ClientResult result;
  DeadlineBudget budget(opts_.deadline_ms, now_ms_());
  DecorrelatedJitterBackoff backoff(opts_.backoff, opts_.backoff_seed);

  for (int attempt = 1; attempt <= opts_.max_attempts; ++attempt) {
    std::uint32_t remaining = budget.RemainingMs(now_ms_());
    if (remaining == 0) {
      result.status = ClientStatus::kDeadlineExceeded;
      return result;
    }
    result.attempts = attempt;
    std::uint32_t attempt_ms = std::min(remaining, opts_.attempt_timeout_ms);

    Frame f;
    f.type = type;
    f.request_id = next_request_id_++;
    f.deadline_ms = attempt_ms;
    f.payload = payload;

    std::uint32_t retry_hint_ms = 0;
    bool transport_closed = false;

    if (!transport_->Send(EncodeFrame(f))) {
      transport_closed = true;
    } else {
      DeadlineBudget attempt_budget(attempt_ms, now_ms_());
      std::vector<std::uint8_t> buf;
      for (;;) {
        std::uint32_t left = attempt_budget.RemainingMs(now_ms_());
        if (left == 0) break;  // attempt timed out → retryable
        RecvStatus st = transport_->Recv(&buf, left);
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
        MsgType resp_type = FrameType(resp);
        if (resp_type == MsgType::kError) {
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
        if (resp_type != expected_response) {
          // A well-checksummed frame of the wrong type with our request id
          // is a protocol violation by the SP, not line noise: fatal.
          result.status = ClientStatus::kVerifyRejected;
          result.verify = core::VerifyResult::Fail(
              core::VerifyCode::kMalformedVo, "unexpected response type");
          result.detail = MsgTypeName(resp_type);
          return result;
        }
        PayloadOutcome out = handle(resp);
        if (!out.wire_ok) break;  // mangled VO bytes → retryable
        if (!out.verify.ok()) {
          result.status = ClientStatus::kVerifyRejected;
          result.verify = std::move(out.verify);
          return result;
        }
        result.status = ClientStatus::kOk;
        return result;
      }
    }

    if (transport_closed) {
      result.status = ClientStatus::kTransportClosed;
      return result;
    }
    if (attempt == opts_.max_attempts) break;

    remaining = budget.RemainingMs(now_ms_());
    std::uint32_t delay = backoff.NextDelayMs(retry_hint_ms, remaining);
    if (remaining == 0 || delay >= remaining) {
      // Sleeping through the rest of the budget cannot succeed; surface
      // the deadline instead of a doomed final attempt.
      result.status = ClientStatus::kDeadlineExceeded;
      return result;
    }
    sleep_ms_(delay);
    result.backoff_total_ms += delay;
  }

  result.status = ClientStatus::kRetriesExhausted;
  return result;
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
    : transport_(std::move(transport)),
      opts_(opts),
      now_ms_(SteadyNowMs),
      sleep_ms_([](std::uint32_t ms) {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      }) {}

void DoUpdateClient::SetClockForTest(std::function<std::uint64_t()> now_ms) {
  now_ms_ = std::move(now_ms);
}

void DoUpdateClient::SetSleepForTest(
    std::function<void(std::uint32_t)> sleep_ms) {
  sleep_ms_ = std::move(sleep_ms);
}

UpdateResult DoUpdateClient::Push(const core::SignedAdsUpdate& update) {
  UpdateResult result;
  const std::vector<std::uint8_t> payload = EncodeAdsUpdatePayload(update);
  DeadlineBudget budget(opts_.deadline_ms, now_ms_());
  DecorrelatedJitterBackoff backoff(opts_.backoff, opts_.backoff_seed);

  for (int attempt = 1; attempt <= opts_.max_attempts; ++attempt) {
    std::uint32_t remaining = budget.RemainingMs(now_ms_());
    if (remaining == 0) {
      result.status = ClientStatus::kDeadlineExceeded;
      return result;
    }
    result.attempts = attempt;
    std::uint32_t attempt_ms = std::min(remaining, opts_.attempt_timeout_ms);

    Frame f;
    f.type = MsgType::kAdsUpdate;
    f.request_id = next_request_id_++;
    f.deadline_ms = attempt_ms;
    f.payload = payload;

    std::uint32_t retry_hint_ms = 0;
    bool transport_closed = false;

    if (!transport_->Send(EncodeFrame(f))) {
      transport_closed = true;
    } else {
      DeadlineBudget attempt_budget(attempt_ms, now_ms_());
      std::vector<std::uint8_t> buf;
      for (;;) {
        std::uint32_t left = attempt_budget.RemainingMs(now_ms_());
        if (left == 0) break;  // attempt timed out → retryable
        RecvStatus st = transport_->Recv(&buf, left);
        if (st == RecvStatus::kTimeout) continue;
        if (st == RecvStatus::kClosed) {
          transport_closed = true;
          break;
        }
        if (st == RecvStatus::kError) break;  // retryable
        common::Untrusted<Frame> resp;
        if (DecodeFrame(buf, &resp) != FrameDecodeError::kOk) continue;
        if (FrameRequestId(resp) != f.request_id) continue;  // stale attempt
        MsgType resp_type = FrameType(resp);
        if (resp_type == MsgType::kError) {
          ErrorInfo info;
          if (!DecodeErrorPayload(resp, &info)) continue;
          if (RpcErrorRetryable(info.code)) {
            retry_hint_ms = info.backoff_hint_ms;
            break;
          }
          result.status = ClientStatus::kServerRejected;
          result.detail = RpcErrorCodeName(info.code);
          if (!info.detail.empty()) result.detail += ": " + info.detail;
          return result;
        }
        if (resp_type != MsgType::kUpdateAck) {
          result.status = ClientStatus::kServerRejected;
          result.detail = std::string("unexpected response type ") +
                          MsgTypeName(resp_type);
          return result;
        }
        UpdateAck ack;
        if (!DecodeUpdateAckPayload(resp, &ack)) {
          // A mangled ack says nothing about whether the delta landed; the
          // retry is safe because a landed delta re-acks kAlreadyApplied.
          break;
        }
        result.apply = ack.status;
        result.server_epoch = ack.epoch;
        if (ack.status == core::ApplyStatus::kApplied ||
            ack.status == core::ApplyStatus::kAlreadyApplied) {
          result.status = ClientStatus::kOk;
          return result;
        }
        // kEpochGap / kBadPatch: the SP examined the delta and refused it.
        // Re-sending the same bytes cannot change the verdict — fatal.
        result.status = ClientStatus::kServerRejected;
        result.detail = core::ApplyStatusName(ack.status);
        return result;
      }
    }

    if (transport_closed) {
      result.status = ClientStatus::kTransportClosed;
      return result;
    }
    if (attempt == opts_.max_attempts) break;

    remaining = budget.RemainingMs(now_ms_());
    std::uint32_t delay = backoff.NextDelayMs(retry_hint_ms, remaining);
    if (remaining == 0 || delay >= remaining) {
      result.status = ClientStatus::kDeadlineExceeded;
      return result;
    }
    sleep_ms_(delay);
  }

  result.status = ClientStatus::kRetriesExhausted;
  return result;
}

}  // namespace apqa::net
