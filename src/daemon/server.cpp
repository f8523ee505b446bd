#include "daemon/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "daemon/net.h"
#include "daemon/spool.h"

namespace muxlink::daemon {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

const char* to_string(JobState s) noexcept {
  switch (s) {
    case JobState::kQueued: return "QUEUED";
    case JobState::kRunning: return "RUNNING";
    case JobState::kDone: return "DONE";
    case JobState::kFailed: return "FAILED";
    case JobState::kCancelled: return "CANCELLED";
    case JobState::kTimeout: return "TIMEOUT";
  }
  return "?";
}

bool is_terminal(JobState s) noexcept {
  return s != JobState::kQueued && s != JobState::kRunning;
}

struct JobRecord {
  std::string id;
  core::AttackJobSpec spec;
  JobState state = JobState::kQueued;
  std::string error;        // FAILED / TIMEOUT / CANCELLED detail
  common::Json manifest;    // DONE only
  std::string key_string;   // DONE only
  double wall_seconds = 0;  // DONE / FAILED / TIMEOUT (time actually spent)
  Clock::time_point submitted{};
  Clock::time_point deadline{};  // submitted + timeout (when a timeout applies)
  bool has_deadline = false;
};

struct DaemonServer::Impl {
  DaemonOptions opts;

  std::vector<int> listen_fds;
  int tcp_listen_fd = -1;
  int tcp_port = 0;

  // Job table + bounded FIFO queue. One mutex guards both: every operation
  // here is bookkeeping (the minutes-long attack runs outside the lock).
  mutable std::mutex m;
  std::condition_variable job_cv;     // workers wait here
  std::condition_variable idle_cv;    // wait_until_idle waits here
  std::condition_variable result_cv;  // WAIT_RESULT long-polls wait here
  std::map<std::string, std::shared_ptr<JobRecord>> jobs;
  std::deque<std::string> queue;
  std::uint64_t next_id = 1;
  int running = 0;
  bool draining = false;
  bool stopping = false;
  bool started = false;
  Clock::time_point start_time{};

  // Accepted connections waiting for a handler (the connection pool).
  std::mutex conn_m;
  std::condition_variable conn_cv;
  std::deque<int> conn_queue;

  std::vector<std::thread> accept_threads;
  std::vector<std::thread> handler_threads;
  std::vector<std::thread> worker_threads;

  // Lifetime daemon.* stats (atomics: also read by stats_json).
  std::atomic<std::uint64_t> jobs_submitted{0};
  std::atomic<std::uint64_t> jobs_completed{0};
  std::atomic<std::uint64_t> jobs_failed{0};
  std::atomic<std::uint64_t> jobs_cancelled{0};
  std::atomic<std::uint64_t> jobs_timeout{0};
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> requests_served{0};
  std::atomic<std::uint64_t> jobs_forwarded{0};   // SUBMITs in a forwarded envelope
  std::atomic<std::uint64_t> wait_requests{0};    // WAIT_RESULT long-polls served

  std::unique_ptr<ResultSpool> spool;  // nullptr when spool_dir is empty

  // --- lifecycle -----------------------------------------------------------

  void start() {
    if (started) throw DaemonError("daemon already started");
    if (opts.socket_path.empty() && opts.tcp_listen.empty()) {
      throw DaemonError("daemon needs a unix socket path or a tcp listen address");
    }
    if (opts.workers < 1) throw DaemonError("daemon needs at least one worker");
    if (!opts.spool_dir.empty()) {
      SpoolOptions sopts;
      sopts.dir = opts.spool_dir;
      sopts.max_bytes = opts.spool_max_bytes;
      sopts.ttl_seconds = opts.spool_ttl_seconds;
      try {
        spool = std::make_unique<ResultSpool>(std::move(sopts));
      } catch (const std::exception& e) {
        throw DaemonError(std::string("cannot open spool: ") + e.what());
      }
    }
    if (!opts.socket_path.empty()) {
      Address a;
      a.kind = Address::Kind::kUnix;
      a.path = opts.socket_path;
      listen_fds.push_back(listen_on(a));
    }
    if (!opts.tcp_listen.empty()) {
      const Address a = parse_address("tcp:" + opts.tcp_listen);
      tcp_listen_fd = listen_on(a);
      tcp_port = bound_tcp_port(tcp_listen_fd);
      listen_fds.push_back(tcp_listen_fd);
    }
    started = true;
    start_time = Clock::now();
    for (const int fd : listen_fds) {
      accept_threads.emplace_back([this, fd] { accept_loop(fd); });
    }
    const int handlers = std::max(1, opts.connection_handlers);
    for (int i = 0; i < handlers; ++i) {
      handler_threads.emplace_back([this] { handler_loop(); });
    }
    for (int i = 0; i < opts.workers; ++i) {
      worker_threads.emplace_back([this] { worker_loop(); });
    }
  }

  void request_drain() {
    std::vector<std::shared_ptr<JobRecord>> dropped;
    {
      std::lock_guard<std::mutex> lock(m);
      if (draining) return;
      draining = true;
      // Queued jobs never start once the drain begins; running jobs finish.
      for (const auto& id : queue) {
        auto it = jobs.find(id);
        if (it != jobs.end() && it->second->state == JobState::kQueued) {
          it->second->state = JobState::kCancelled;
          it->second->error = "daemon draining";
          dropped.push_back(it->second);
        }
      }
      queue.clear();
    }
    jobs_cancelled += dropped.size();
    MUXLINK_COUNTER_ADD("daemon.jobs_cancelled", static_cast<std::int64_t>(dropped.size()));
    MUXLINK_GAUGE_SET("daemon.queue_depth", 0.0);
    job_cv.notify_all();
    idle_cv.notify_all();
    result_cv.notify_all();
  }

  void wait_until_idle() {
    std::unique_lock<std::mutex> lock(m);
    idle_cv.wait(lock, [&] { return queue.empty() && running == 0; });
  }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(m);
      if (!started || stopping) return;
      stopping = true;
      draining = true;
      for (const auto& id : queue) {
        auto it = jobs.find(id);
        if (it != jobs.end() && it->second->state == JobState::kQueued) {
          it->second->state = JobState::kCancelled;
          it->second->error = "daemon stopped";
        }
      }
      queue.clear();
    }
    job_cv.notify_all();
    conn_cv.notify_all();
    idle_cv.notify_all();
    result_cv.notify_all();
    for (auto& t : accept_threads) t.join();
    accept_threads.clear();
    for (auto& t : handler_threads) t.join();
    handler_threads.clear();
    for (auto& t : worker_threads) t.join();  // blocks until running jobs finish
    worker_threads.clear();
    for (const int fd : listen_fds) ::close(fd);
    listen_fds.clear();
    {
      std::lock_guard<std::mutex> lock(conn_m);
      for (const int fd : conn_queue) ::close(fd);
      conn_queue.clear();
    }
    if (!opts.socket_path.empty()) ::unlink(opts.socket_path.c_str());
  }

  bool stop_requested() const {
    std::lock_guard<std::mutex> lock(m);
    return stopping;
  }

  // --- accept / connection handling ---------------------------------------

  void accept_loop(int listen_fd) {
    while (!stop_requested()) {
      pollfd p{listen_fd, POLLIN, 0};
      const int rc = ::poll(&p, 1, 500);
      if (rc <= 0) continue;  // timeout or EINTR: re-check the stop flag
      const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) continue;
      ++connections_accepted;
      MUXLINK_COUNTER_ADD("daemon.connections_accepted", 1);
      {
        std::lock_guard<std::mutex> lock(conn_m);
        conn_queue.push_back(fd);
      }
      conn_cv.notify_one();
    }
  }

  void handler_loop() {
    for (;;) {
      int fd = -1;
      {
        std::unique_lock<std::mutex> lock(conn_m);
        conn_cv.wait(lock, [&] { return stop_requested() || !conn_queue.empty(); });
        if (conn_queue.empty()) return;  // stopping
        fd = conn_queue.front();
        conn_queue.pop_front();
      }
      serve_connection(fd);
      ::close(fd);
    }
  }

  void serve_connection(int fd) {
    bool hello_done = false;  // HELLO-first discipline (DESIGN.md §13)
    while (!stop_requested()) {
      // Short poll so shutdown never waits on an idle client; the io
      // timeout inside read_frame only bounds mid-frame stalls.
      pollfd p{fd, POLLIN, 0};
      const int rc = ::poll(&p, 1, 200);
      if (rc < 0 && errno != EINTR) return;
      if (rc <= 0) continue;
      std::optional<Frame> frame;
      try {
        frame = read_frame(fd, opts.max_frame_bytes, opts.io_timeout_ms);
      } catch (const ProtocolError& e) {
        // Framing is lost: best-effort ERROR, then drop the connection.
        ++protocol_errors;
        MUXLINK_COUNTER_ADD("daemon.protocol_errors", 1);
        try {
          write_frame(fd, MsgType::kError, error_payload(ErrorCode::kBadRequest, e.what()));
        } catch (const ProtocolError&) {
        }
        return;
      }
      if (!frame) return;  // orderly close
      ++requests_served;
      MUXLINK_COUNTER_ADD("daemon.requests", 1);
      try {
        if (!dispatch(fd, *frame, hello_done)) return;
      } catch (const ProtocolError& e) {
        ++protocol_errors;
        MUXLINK_COUNTER_ADD("daemon.protocol_errors", 1);
        try {
          write_frame(fd, MsgType::kError, error_payload(ErrorCode::kBadRequest, e.what()));
        } catch (const ProtocolError&) {
        }
        return;
      } catch (const std::exception& e) {
        try {
          write_frame(fd, MsgType::kError, error_payload(ErrorCode::kInternal, e.what()));
        } catch (const ProtocolError&) {
        }
      }
    }
  }

  // Returns false when the connection must close (version rejection).
  bool dispatch(int fd, const Frame& frame, bool& hello_done) {
    if (frame.type == MsgType::kHello) {
      const common::Json req = parse_payload(frame);
      bool ok = false;
      if (const common::Json* versions = req.find("versions"); versions && versions->is_array()) {
        for (std::size_t i = 0; i < versions->size(); ++i) {
          const common::Json& v = versions->at(i);
          if (v.is_number() && v.as_int() == kProtocolVersion) ok = true;
        }
      }
      if (!ok) {
        write_frame(fd, MsgType::kError,
                    error_payload(ErrorCode::kUnsupportedVersion,
                                  "server speaks MXRPC1 version 1 only"));
        return false;
      }
      // Other keys are ignored, so an old peer's caps offer is harmless.
      common::Json reply = common::Json::object();
      reply["version"] = static_cast<int>(kProtocolVersion);
      reply["server"] = "muxlinkd";
      write_frame(fd, MsgType::kHelloOk, reply.dump());
      hello_done = true;
      return true;
    }
    if (!hello_done) {
      write_frame(fd, MsgType::kError,
                  error_payload(ErrorCode::kBadRequest, "HELLO must be the first message"));
      return true;
    }
    switch (frame.type) {
      case MsgType::kSubmit: return handle_submit(fd, frame);
      case MsgType::kStatus: return handle_status(fd, frame);
      case MsgType::kResult: return handle_result(fd, frame);
      case MsgType::kWaitResult: return handle_wait_result(fd, frame);
      case MsgType::kCancel: return handle_cancel(fd, frame);
      case MsgType::kStats:
        write_frame(fd, MsgType::kStatsOk, stats_json().dump());
        return true;
      case MsgType::kShutdown: {
        request_drain();
        common::Json reply = common::Json::object();
        reply["draining"] = true;
        write_frame(fd, MsgType::kShutdownOk, reply.dump());
        return true;
      }
      default:
        // Reply types (and HELLO handled above) are not valid requests.
        write_frame(fd, MsgType::kError,
                    error_payload(ErrorCode::kBadRequest,
                                  std::string(type_name(frame.type)) + " is not a request"));
        return true;
    }
  }

  bool handle_submit(int fd, const Frame& frame) {
    core::AttackJobSpec spec;
    bool forwarded = false;
    try {
      common::Json payload = parse_payload(frame);
      // Coordinator envelope: the spec rides under "spec" with provenance
      // alongside; the spec JSON itself stays exactly the bare SUBMIT
      // document, so from_json's strict key set holds.
      if (payload.is_object() && payload.find("spec")) {
        forwarded = true;
        spec = core::AttackJobSpec::from_json(payload.at("spec"));
      } else {
        spec = core::AttackJobSpec::from_json(payload);
      }
    } catch (const std::invalid_argument& e) {
      write_frame(fd, MsgType::kError, error_payload(ErrorCode::kBadRequest, e.what()));
      return true;
    }
    if (spec.use_zoo && spec.zoo_dir.empty()) spec.zoo_dir = opts.zoo_dir;
    std::string id;
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(m);
      if (draining) {
        write_frame(fd, MsgType::kError,
                    error_payload(ErrorCode::kDraining, "daemon is draining; submit refused"));
        return true;
      }
      if (queue.size() >= opts.max_queue) {
        write_frame(fd, MsgType::kError,
                    error_payload(ErrorCode::kQueueFull,
                                  "job queue is full (" + std::to_string(opts.max_queue) + ")"));
        return true;
      }
      auto rec = std::make_shared<JobRecord>();
      rec->id = "j" + std::to_string(next_id++);
      rec->spec = std::move(spec);
      rec->submitted = Clock::now();
      double timeout = rec->spec.timeout_seconds;
      if (opts.job_timeout_seconds > 0 && (timeout <= 0 || timeout > opts.job_timeout_seconds)) {
        timeout = opts.job_timeout_seconds;
      }
      if (timeout > 0) {
        rec->has_deadline = true;
        rec->deadline = rec->submitted + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(timeout));
      }
      id = rec->id;
      jobs.emplace(id, std::move(rec));
      queue.push_back(id);
      depth = queue.size();
    }
    ++jobs_submitted;
    if (forwarded) {
      ++jobs_forwarded;
      MUXLINK_COUNTER_ADD("daemon.jobs_forwarded", 1);
    }
    MUXLINK_COUNTER_ADD("daemon.jobs_submitted", 1);
    MUXLINK_GAUGE_SET("daemon.queue_depth", static_cast<double>(depth));
    job_cv.notify_one();
    common::Json reply = common::Json::object();
    reply["job_id"] = id;
    write_frame(fd, MsgType::kSubmitOk, reply.dump());
    return true;
  }

  // Extracts "job_id" or answers with kBadRequest/kUnknownJob. Returns the
  // record, or nullptr after having written the error reply.
  std::shared_ptr<JobRecord> lookup_job(int fd, const Frame& frame, std::string* id_out) {
    const common::Json req = parse_payload(frame);
    const common::Json* id = req.find("job_id");
    if (!id || !id->is_string()) {
      write_frame(fd, MsgType::kError,
                  error_payload(ErrorCode::kBadRequest, "payload needs a string job_id"));
      return nullptr;
    }
    *id_out = id->as_string();
    std::lock_guard<std::mutex> lock(m);
    auto it = jobs.find(*id_out);
    if (it == jobs.end()) {
      write_frame(fd, MsgType::kError,
                  error_payload(ErrorCode::kUnknownJob, "unknown job id '" + *id_out + "'"));
      return nullptr;
    }
    return it->second;
  }

  bool handle_status(int fd, const Frame& frame) {
    std::string id;
    const auto rec = lookup_job(fd, frame, &id);
    if (!rec) return true;
    common::Json reply = common::Json::object();
    {
      std::lock_guard<std::mutex> lock(m);
      reply["job_id"] = rec->id;
      reply["state"] = to_string(rec->state);
      if (rec->state == JobState::kQueued) {
        std::int64_t pos = 0;
        for (const auto& qid : queue) {
          if (qid == rec->id) break;
          ++pos;
        }
        reply["queue_position"] = pos;
      }
      if (!rec->error.empty()) reply["error"] = rec->error;
      if (is_terminal(rec->state) && rec->state != JobState::kCancelled) {
        reply["wall_seconds"] = rec->wall_seconds;
      }
    }
    write_frame(fd, MsgType::kStatusOk, reply.dump());
    return true;
  }

  // Builds the RESULT_OK/WAIT_RESULT_OK document and, when the result was
  // actually delivered, releases its spool pin (fetched entries become
  // eligible for retention GC).
  common::Json result_reply(const std::shared_ptr<JobRecord>& rec) {
    common::Json reply = common::Json::object();
    bool delivered = false;
    {
      std::lock_guard<std::mutex> lock(m);
      reply["job_id"] = rec->id;
      reply["state"] = to_string(rec->state);
      if (rec->state == JobState::kDone) {
        reply["manifest"] = rec->manifest;
        reply["key"] = rec->key_string;
        delivered = true;
      } else if (!rec->error.empty()) {
        reply["error"] = rec->error;
      }
    }
    if (delivered && spool) spool->mark_fetched(rec->id);
    return reply;
  }

  bool handle_result(int fd, const Frame& frame) {
    std::string id;
    const auto rec = lookup_job(fd, frame, &id);
    if (!rec) return true;
    write_frame(fd, MsgType::kResultOk, result_reply(rec).dump());
    return true;
  }

  // WAIT_RESULT long-poll: blocks this connection handler until the job is
  // terminal, the (server-clamped) deadline passes, or the daemon stops.
  // The reply is RESULT_OK-shaped; a non-terminal state means "deadline
  // expired first, re-issue if you still care". Waiting in short slices
  // keeps shutdown latency bounded without a per-job waiter registry.
  bool handle_wait_result(int fd, const Frame& frame) {
    std::string id;
    const auto rec = lookup_job(fd, frame, &id);
    if (!rec) return true;
    long timeout_ms = 0;
    {
      const common::Json req = parse_payload(frame);
      if (const common::Json* t = req.find("timeout_ms"); t && t->is_number()) {
        timeout_ms = static_cast<long>(t->as_double());
      }
    }
    const long cap = std::max(0, opts.wait_result_cap_ms);
    if (timeout_ms <= 0 || timeout_ms > cap) timeout_ms = cap;
    ++wait_requests;
    MUXLINK_COUNTER_ADD("daemon.wait_requests", 1);
    const Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    {
      std::unique_lock<std::mutex> lock(m);
      result_cv.wait_until(lock, deadline,
                           [&] { return stopping || is_terminal(rec->state); });
    }
    write_frame(fd, MsgType::kWaitResultOk, result_reply(rec).dump());
    return true;
  }

  bool handle_cancel(int fd, const Frame& frame) {
    std::string id;
    const auto rec = lookup_job(fd, frame, &id);
    if (!rec) return true;
    bool cancelled = false;
    common::Json reply = common::Json::object();
    {
      std::lock_guard<std::mutex> lock(m);
      if (rec->state == JobState::kQueued) {
        rec->state = JobState::kCancelled;
        rec->error = "cancelled by client";
        for (auto it = queue.begin(); it != queue.end(); ++it) {
          if (*it == rec->id) {
            queue.erase(it);
            break;
          }
        }
        cancelled = true;
      }
      // RUNNING jobs are not preempted (determinism contract); terminal
      // states are already final. Either way the reply reports the state.
      reply["job_id"] = rec->id;
      reply["state"] = to_string(rec->state);
    }
    if (cancelled) {
      ++jobs_cancelled;
      MUXLINK_COUNTER_ADD("daemon.jobs_cancelled", 1);
      idle_cv.notify_all();
      result_cv.notify_all();
    }
    write_frame(fd, MsgType::kCancelOk, reply.dump());
    return true;
  }

  // --- compute workers -----------------------------------------------------

  void worker_loop() {
    for (;;) {
      std::shared_ptr<JobRecord> rec;
      {
        std::unique_lock<std::mutex> lock(m);
        job_cv.wait(lock, [&] { return stopping || !queue.empty(); });
        if (queue.empty()) return;  // stopping
        const std::string id = queue.front();
        queue.pop_front();
        auto it = jobs.find(id);
        if (it == jobs.end() || it->second->state != JobState::kQueued) continue;
        rec = it->second;
        if (rec->has_deadline && Clock::now() >= rec->deadline) {
          rec->state = JobState::kTimeout;
          rec->error = "deadline passed before the job started";
          ++jobs_timeout;
          idle_cv.notify_all();
          result_cv.notify_all();
          continue;
        }
        rec->state = JobState::kRunning;
        ++running;
        MUXLINK_GAUGE_SET("daemon.queue_depth", static_cast<double>(queue.size()));
        MUXLINK_GAUGE_SET("daemon.active_workers", static_cast<double>(running));
      }
      run_job(*rec);
      {
        std::lock_guard<std::mutex> lock(m);
        --running;
        MUXLINK_GAUGE_SET("daemon.active_workers", static_cast<double>(running));
      }
      idle_cv.notify_all();
      job_cv.notify_one();
    }
  }

  void run_job(JobRecord& rec) {
    const Clock::time_point t0 = Clock::now();
    common::Json manifest;
    std::string key_string;
    std::string error;
    JobState final_state = JobState::kDone;
    try {
      core::AttackJobOutcome outcome = core::run_attack_job(rec.spec);
      manifest = std::move(outcome.manifest);
      key_string = std::move(outcome.key_string);
    } catch (const std::exception& e) {
      final_state = JobState::kFailed;
      error = e.what();
    }
    const Clock::time_point t1 = Clock::now();
    if (final_state == JobState::kDone && rec.has_deadline && t1 > rec.deadline) {
      // Cooperative timeout: the result is discarded, not reported late.
      final_state = JobState::kTimeout;
      error = "job exceeded its deadline";
      manifest = common::Json();
      key_string.clear();
    }
    std::string spool_error;
    if (final_state == JobState::kDone && spool) {
      try {
        spool->put(rec.id, manifest.dump_pretty() + "\n");
      } catch (const std::exception& e) {
        spool_error = e.what();
      }
    }
    {
      std::lock_guard<std::mutex> lock(m);
      rec.state = final_state;
      rec.error = error;
      rec.manifest = std::move(manifest);
      rec.key_string = std::move(key_string);
      rec.wall_seconds = seconds_between(t0, t1);
      // Counters bump inside the critical section that publishes the
      // terminal state: a WAIT_RESULT long-poller wakes the instant the
      // state flips, and its follow-up STATS must already see this job.
      switch (final_state) {
        case JobState::kDone:
          ++jobs_completed;
          MUXLINK_COUNTER_ADD("daemon.jobs_completed", 1);
          break;
        case JobState::kFailed:
          ++jobs_failed;
          MUXLINK_COUNTER_ADD("daemon.jobs_failed", 1);
          break;
        case JobState::kTimeout:
          ++jobs_timeout;
          MUXLINK_COUNTER_ADD("daemon.jobs_timeout", 1);
          break;
        default: break;
      }
    }
    result_cv.notify_all();
    MUXLINK_HISTOGRAM_RECORD("daemon.job_seconds", seconds_between(t0, t1));
    if (!spool_error.empty()) {
      MUXLINK_COUNTER_ADD("daemon.spool_errors", 1);
    }
  }

  common::Json stats_json() const {
    common::Json j = common::Json::object();
    j["server"] = "muxlinkd";
    j["protocol_version"] = static_cast<int>(kProtocolVersion);
    std::size_t depth = 0;
    int active = 0;
    bool drain = false;
    {
      std::lock_guard<std::mutex> lock(m);
      depth = queue.size();
      active = running;
      drain = draining;
      j["uptime_seconds"] = started ? seconds_between(start_time, Clock::now()) : 0.0;
    }
    j["workers"] = opts.workers;
    j["queue_depth"] = static_cast<std::int64_t>(depth);
    j["active_workers"] = active;
    j["draining"] = drain;
    j["jobs_submitted"] = static_cast<std::int64_t>(jobs_submitted.load());
    j["jobs_completed"] = static_cast<std::int64_t>(jobs_completed.load());
    j["jobs_failed"] = static_cast<std::int64_t>(jobs_failed.load());
    j["jobs_cancelled"] = static_cast<std::int64_t>(jobs_cancelled.load());
    j["jobs_timeout"] = static_cast<std::int64_t>(jobs_timeout.load());
    j["connections_accepted"] = static_cast<std::int64_t>(connections_accepted.load());
    j["requests_served"] = static_cast<std::int64_t>(requests_served.load());
    j["protocol_errors"] = static_cast<std::int64_t>(protocol_errors.load());
    j["jobs_forwarded"] = static_cast<std::int64_t>(jobs_forwarded.load());
    j["wait_requests"] = static_cast<std::int64_t>(wait_requests.load());
    if (spool) {
      const SpoolStats s = spool->stats();
      common::Json sj = common::Json::object();
      sj["entries"] = static_cast<std::int64_t>(s.entries);
      sj["bytes"] = static_cast<std::int64_t>(s.bytes);
      sj["unfetched"] = static_cast<std::int64_t>(s.unfetched);
      sj["gc_removed"] = static_cast<std::int64_t>(s.gc_removed);
      sj["recovered_temps"] = static_cast<std::int64_t>(s.recovered_temps);
      j["spool"] = sj;
    }
    return j;
  }
};

DaemonServer::DaemonServer(DaemonOptions opts) : impl_(std::make_unique<Impl>()) {
  impl_->opts = std::move(opts);
}

DaemonServer::~DaemonServer() {
  try {
    stop();
  } catch (...) {
  }
}

void DaemonServer::start() { impl_->start(); }
void DaemonServer::request_drain() { impl_->request_drain(); }

bool DaemonServer::draining() const noexcept {
  std::lock_guard<std::mutex> lock(impl_->m);
  return impl_->draining;
}

void DaemonServer::wait_until_idle() { impl_->wait_until_idle(); }
void DaemonServer::stop() { impl_->stop(); }
int DaemonServer::tcp_port() const noexcept { return impl_->tcp_port; }
common::Json DaemonServer::stats_json() const { return impl_->stats_json(); }
const DaemonOptions& DaemonServer::options() const noexcept { return impl_->opts; }

}  // namespace muxlink::daemon
