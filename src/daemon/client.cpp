#include "daemon/client.h"

#include <unistd.h>

#include <chrono>
#include <thread>

namespace muxlink::daemon {

DaemonClient::DaemonClient(ClientOptions opts) : opts_(std::move(opts)) {
  address_text_ = opts_.address.empty() ? default_address() : opts_.address;
  address_ = parse_address(address_text_);
}

DaemonClient::~DaemonClient() {
  if (fd_ >= 0) ::close(fd_);
}

void DaemonClient::ensure_connected() {
  if (fd_ >= 0) return;
  constexpr double kRetryBackoff = 2.0;
  int delay_ms = opts_.retry_initial_ms;
  const int attempts = std::max(1, opts_.connect_attempts);
  for (int attempt = 1;; ++attempt) {
    try {
      fd_ = connect_to(address_);
      break;
    } catch (const DaemonError&) {
      if (attempt >= attempts) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      delay_ms = static_cast<int>(delay_ms * kRetryBackoff);
    }
  }
  // Version negotiation before anything else (DESIGN.md §13).
  try {
    common::Json hello = common::Json::object();
    common::Json versions = common::Json::array();
    versions.push_back(static_cast<int>(kProtocolVersion));
    hello["versions"] = std::move(versions);
    roundtrip(MsgType::kHello, MsgType::kHelloOk, hello);
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

common::Json DaemonClient::roundtrip(MsgType request, MsgType expected_reply,
                                     const common::Json& payload) {
  ensure_connected();
  std::optional<Frame> reply;
  try {
    write_frame(fd_, request, payload.dump());
    reply = read_frame(fd_, opts_.max_frame_bytes, opts_.io_timeout_ms);
  } catch (const ProtocolError&) {
    // The connection is unusable either way; drop it so the next call
    // reconnects (e.g. the daemon restarted between requests).
    ::close(fd_);
    fd_ = -1;
    throw;
  }
  if (!reply) {
    ::close(fd_);
    fd_ = -1;
    throw DaemonError("daemon closed the connection without replying to " +
                      std::string(type_name(request)));
  }
  if (reply->type == MsgType::kError) {
    const common::Json err = parse_payload(*reply);
    const int code = err.int_or("code", 0);
    // A version rejection or framing complaint poisons the connection.
    if (code == static_cast<int>(ErrorCode::kUnsupportedVersion) ||
        code == static_cast<int>(ErrorCode::kBadRequest)) {
      ::close(fd_);
      fd_ = -1;
    }
    throw DaemonError("daemon refused " + std::string(type_name(request)) + ": " +
                          err.string_or("message", "(no message)"),
                      code);
  }
  if (reply->type != expected_reply) {
    ::close(fd_);
    fd_ = -1;
    throw ProtocolError(std::string("MXRPC1: expected ") + type_name(expected_reply) + " reply, got " +
                        type_name(reply->type));
  }
  return parse_payload(*reply);
}

namespace {

common::Json job_id_payload(const std::string& job_id) {
  common::Json j = common::Json::object();
  j["job_id"] = job_id;
  return j;
}

}  // namespace

std::string DaemonClient::submit(const core::AttackJobSpec& spec) {
  const common::Json reply = roundtrip(MsgType::kSubmit, MsgType::kSubmitOk, spec.to_json());
  const std::string id = reply.string_or("job_id", "");
  if (id.empty()) throw ProtocolError("MXRPC1: SUBMIT_OK reply carried no job_id");
  return id;
}

std::string DaemonClient::submit_forwarded(const core::AttackJobSpec& spec,
                                           const common::Json& provenance) {
  common::Json envelope = common::Json::object();
  envelope["spec"] = spec.to_json();
  envelope["forwarded"] = provenance;
  const common::Json reply = roundtrip(MsgType::kSubmit, MsgType::kSubmitOk, envelope);
  const std::string id = reply.string_or("job_id", "");
  if (id.empty()) throw ProtocolError("MXRPC1: SUBMIT_OK reply carried no job_id");
  return id;
}

common::Json DaemonClient::status(const std::string& job_id) {
  return roundtrip(MsgType::kStatus, MsgType::kStatusOk, job_id_payload(job_id));
}

common::Json DaemonClient::result(const std::string& job_id) {
  return roundtrip(MsgType::kResult, MsgType::kResultOk, job_id_payload(job_id));
}

common::Json DaemonClient::cancel(const std::string& job_id) {
  return roundtrip(MsgType::kCancel, MsgType::kCancelOk, job_id_payload(job_id));
}

common::Json DaemonClient::stats() {
  return roundtrip(MsgType::kStats, MsgType::kStatsOk, common::Json::object());
}

common::Json DaemonClient::shutdown() {
  return roundtrip(MsgType::kShutdown, MsgType::kShutdownOk, common::Json::object());
}

common::Json DaemonClient::wait_result(const std::string& job_id, long timeout_ms) {
  common::Json req = job_id_payload(job_id);
  req["timeout_ms"] = static_cast<std::int64_t>(timeout_ms);
  return roundtrip(MsgType::kWaitResult, MsgType::kWaitResultOk, req);
}

common::Json DaemonClient::wait_for_result(const std::string& job_id) {
  // The server parks each request until the job is terminal or its
  // per-request cap expires; a non-terminal reply just means "ask again".
  for (;;) {
    common::Json reply = wait_result(job_id, 0 /* server cap */);
    const std::string state = reply.string_or("state", "");
    if (state != "QUEUED" && state != "RUNNING") return reply;
  }
}

}  // namespace muxlink::daemon
