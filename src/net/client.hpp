#pragma once
// Client half of the network front-end (DESIGN.md §10): connect to a
// pts_serve daemon, submit jobs over the framed protocol, wait for results.
// pts_client wraps this in a CLI; examples/batch_server drives its demo
// workload through it.
//
// The API deliberately mirrors the in-process SolverService shape —
// submit() returns a handle, wait() resolves to a service::JobResult — so a
// caller can swap the embedded service for a remote one without rethinking
// its control flow. A fixed seed submitted through here produces the same
// trajectory as the same SubmitRequest issued in-process (the wire carries
// IEEE-754 bit patterns, never formatted approximations); tests/net/ holds
// that bit-for-bit.
//
// Reconnection. With ReconnectPolicy::enabled, a connection that dies
// mid-conversation is rebuilt with jittered exponential backoff and every
// submission still awaiting its result is resubmitted under its ORIGINAL
// request id. Resubmission is idempotent by construction: the server
// content-addresses instances (PR 8 dedup) and re-enqueues journaled jobs on
// restart, so the retry either attaches to the still-running solve or
// re-runs the same deterministic job; the client cross-checks the fresh
// ack's content hash against the one acked before the drop and fails loudly
// on a mismatch rather than silently waiting on a different job.
//
// Concurrency model: NOT thread-safe — one Client per thread. Multiplexing
// is still supported on one connection: submit several jobs back to back,
// then wait for each in any order. wait() pumps the socket and files frames
// for other requests as they arrive, so out-of-order completion costs
// nothing.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "parallel/transport.hpp"
#include "service/job.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace pts::net {

/// One accepted remote submission: the connection-local request id (the
/// wait/cancel key) plus the server-side identity echoed in the ack.
struct RemoteJob {
  std::uint64_t request_id = 0;
  service::JobId job_id = 0;       ///< server-side id (journal identity)
  std::uint64_t content_hash = 0;  ///< instance content address
  bool deduplicated = false;       ///< attached to an in-flight solve server-side
};

/// Resolve-and-connect with a bounded wait: the TCP dial shared by Client,
/// its reconnect path and the cluster coordinator's peer links. The socket
/// comes back with Nagle's algorithm off, like every TCP link in this code
/// base (DESIGN.md §10).
[[nodiscard]] Expected<parallel::FrameSocket> dial(const std::string& host,
                                                   std::uint16_t port,
                                                   double timeout_seconds);

/// How (whether) the client survives a dropped connection. Backoff doubles
/// per attempt from `initial_backoff_seconds` up to `max_backoff_seconds`,
/// jittered to half its nominal value so a herd of clients does not
/// reconnect in lockstep against a freshly restarted server.
struct ReconnectPolicy {
  bool enabled = false;
  int max_attempts = 8;
  double initial_backoff_seconds = 0.05;
  double max_backoff_seconds = 2.0;
};

class Client {
 public:
  Client() = default;  ///< disconnected; connect() builds a live one
  ~Client() = default;

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Resolves `host` (name or dotted quad), connects with a bounded wait.
  /// The policy governs what happens if the connection later dies.
  [[nodiscard]] static Expected<Client> connect(const std::string& host,
                                               std::uint16_t port,
                                               double timeout_seconds = 5.0,
                                               ReconnectPolicy policy = {});

  [[nodiscard]] bool connected() const { return socket_.valid(); }

  /// Ships the submission and blocks for the ack. An admission failure
  /// (invalid options, backpressure, draining server) comes back as its
  /// Status; request.instance must be non-null. The client's own copy of
  /// the instance is retained until the result arrives — result frames
  /// decode their solution against it.
  [[nodiscard]] Expected<RemoteJob> submit(const service::SubmitRequest& request);

  /// Blocks until the job's terminal frame arrives (pumping the shared
  /// socket; frames for other requests are filed, not dropped). Returns the
  /// reassembled service::JobResult — including the streamed anytime curve —
  /// or kDeadlineExceeded when `timeout_seconds` passes first (the job stays
  /// waitable), or kUnavailable when the connection died and the reconnect
  /// policy was off (or exhausted).
  [[nodiscard]] Expected<service::JobResult> wait(
      const RemoteJob& job, std::optional<double> timeout_seconds = {});

  /// Fire-and-forget cancel of one accepted submission. The authoritative
  /// outcome is still the result frame (usually kCancelled).
  [[nodiscard]] Status cancel(const RemoteJob& job);

  /// Non-empty once the server said Goodbye (draining / at capacity):
  /// outstanding work still resolves, new submits will be refused.
  [[nodiscard]] const std::optional<std::string>& goodbye_reason() const {
    return goodbye_;
  }

  /// Successful reconnects performed so far (tests and ops).
  [[nodiscard]] std::uint64_t reconnects() const { return reconnects_; }

  void close() { socket_.close(); }

 private:
  Client(parallel::FrameSocket socket, std::string host, std::uint16_t port,
         double connect_timeout_seconds, ReconnectPolicy policy);

  /// Reads one frame and files it (ack / event chunk / result / goodbye).
  Status pump_one(std::optional<double> timeout_seconds);

  /// True when the status is a dead-connection verdict the policy covers.
  [[nodiscard]] bool should_reconnect(const Status& status) const;

  /// Rebuilds the connection with jittered exponential backoff and replays
  /// every pending submission under its original request id. On success the
  /// caller just resumes pumping; on failure the socket stays closed.
  Status reconnect_and_resubmit();

  /// Everything needed to replay one submission verbatim after a reconnect,
  /// plus the idempotency anchor (`acked_content_hash`) once the server has
  /// acked it. Lives until the result frame arrives.
  struct PendingSubmission {
    std::shared_ptr<const mkp::Instance> instance;
    service::TenantId tenant;
    int priority = 0;
    std::optional<double> deadline_seconds;
    service::WarmStartPolicy warm_start = service::WarmStartPolicy::kDisabled;
    bool allow_dedup = true;
    service::JobOptions options;
    std::optional<std::uint64_t> acked_content_hash;
  };

  [[nodiscard]] Status send_submission(std::uint64_t request_id,
                                       const PendingSubmission& pending);

  parallel::FrameSocket socket_;
  std::string host_;
  std::uint16_t port_ = 0;
  double connect_timeout_seconds_ = 5.0;
  ReconnectPolicy policy_;
  Rng backoff_rng_{0x706172616c6c656cull};  // jitter only; determinism is fine
  std::uint64_t reconnects_ = 0;
  std::uint64_t next_request_id_ = 1;
  /// Submissions whose result has not arrived (replay + decode context).
  std::map<std::uint64_t, PendingSubmission> pending_;
  std::map<std::uint64_t, SubmitAck> acks_;
  /// Anytime chunks accumulated ahead of their terminal frame.
  std::map<std::uint64_t, std::vector<obs::AnytimeSample>> chunks_;
  std::map<std::uint64_t, service::JobResult> results_;
  std::optional<std::string> goodbye_;
};

}  // namespace pts::net
