// MXRPC1 client used by `muxlink submit/status/result/cancel/stats` and the
// daemon tests/benchmarks. One connection, lazily opened with
// retry-and-backoff (daemons take a moment to bind their socket), HELLO
// version negotiation on connect, then strict one-request/one-reply
// roundtrips. A reply that is not the request's success type is an error:
// ERROR frames surface as DaemonError carrying the server's ErrorCode,
// anything else is a ProtocolError.
#pragma once

#include <string>

#include "common/json.h"
#include "daemon/net.h"
#include "daemon/protocol.h"
#include "muxlink/job.h"

namespace muxlink::daemon {

struct ClientOptions {
  std::string address;      // "" = default_address()
  int connect_attempts = 5; // total tries before giving up
  int retry_initial_ms = 50;  // doubles per attempt: 50, 100, 200, 400 ms
  int io_timeout_ms = 0;      // per-reply wait (0 = block; jobs can run minutes)
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

class DaemonClient {
 public:
  explicit DaemonClient(ClientOptions opts = {});
  ~DaemonClient();
  DaemonClient(const DaemonClient&) = delete;
  DaemonClient& operator=(const DaemonClient&) = delete;

  // Submits a job; returns its daemon-assigned id ("j1", "j2", ...).
  std::string submit(const core::AttackJobSpec& spec);

  // Submits inside a `forwarded` envelope carrying coordinator provenance
  // (requires the negotiated `forwarded` cap; DaemonError otherwise).
  std::string submit_forwarded(const core::AttackJobSpec& spec, const common::Json& provenance);

  common::Json status(const std::string& job_id);
  common::Json result(const std::string& job_id);
  common::Json cancel(const std::string& job_id);
  common::Json stats();
  common::Json shutdown();  // asks the daemon to drain

  // One WAIT_RESULT long-poll roundtrip (requires the `wait_result` cap).
  // The reply is RESULT_OK-shaped; a non-terminal state means the server
  // deadline expired first.
  common::Json wait_result(const std::string& job_id, long timeout_ms);

  // Blocks until the job reaches a terminal state and returns the result
  // reply, re-issuing WAIT_RESULT long-polls (requires the `wait_result`
  // cap; DaemonError otherwise).
  common::Json wait_for_result(const std::string& job_id);

  // True when the connected daemon negotiated `name` in HELLO (connects
  // lazily if needed).
  bool has_cap(std::string_view name);

  const std::string& address() const noexcept { return address_text_; }

 private:
  void ensure_connected();
  common::Json roundtrip(MsgType request, MsgType expected_reply, const common::Json& payload);

  ClientOptions opts_;
  Address address_;
  std::string address_text_;
  int fd_ = -1;
  bool cap_wait_result_ = false;  // negotiated on the current connection
  bool cap_forwarded_ = false;
};

}  // namespace muxlink::daemon
