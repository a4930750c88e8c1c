#include "net/client.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "util/timer.hpp"

namespace pts::net {

namespace {

/// Connects one resolved address with a bounded wait (non-blocking connect +
/// poll), restoring blocking mode on success. Returns -1 on failure.
int connect_with_timeout(const addrinfo& ai, double timeout_seconds) {
  const int fd = ::socket(ai.ai_family, ai.ai_socktype | SOCK_CLOEXEC,
                          ai.ai_protocol);
  if (fd < 0) return -1;
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, ai.ai_addr, ai.ai_addrlen) != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return -1;
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int timeout_ms =
        static_cast<int>(std::max(1.0, timeout_seconds * 1000.0));
    if (::poll(&pfd, 1, timeout_ms) != 1) {
      ::close(fd);
      return -1;
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 ||
        err != 0) {
      ::close(fd);
      return -1;
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  return fd;
}

}  // namespace

Expected<parallel::FrameSocket> dial(const std::string& host,
                                     std::uint16_t port,
                                     double timeout_seconds) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* list = nullptr;
  const std::string port_text = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), port_text.c_str(), &hints, &list);
  if (rc != 0) {
    return Status::unavailable("net: cannot resolve '" + host +
                               "': " + ::gai_strerror(rc));
  }
  int fd = -1;
  for (const addrinfo* ai = list; ai != nullptr && fd < 0; ai = ai->ai_next) {
    fd = connect_with_timeout(*ai, timeout_seconds);
  }
  ::freeaddrinfo(list);
  if (fd < 0) {
    return Status::unavailable("net: cannot connect to " + host + ":" +
                               port_text);
  }
  // Every TCP link is NODELAY (DESIGN.md §10); the accepting end matches in
  // accept_connection().
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return parallel::FrameSocket(fd);
}

Client::Client(parallel::FrameSocket socket, std::string host,
               std::uint16_t port, double connect_timeout_seconds,
               ReconnectPolicy policy)
    : socket_(std::move(socket)),
      host_(std::move(host)),
      port_(port),
      connect_timeout_seconds_(connect_timeout_seconds),
      policy_(policy),
      backoff_rng_(0x706172616c6c656cull ^
                   (static_cast<std::uint64_t>(port) << 16)) {}

Expected<Client> Client::connect(const std::string& host, std::uint16_t port,
                                 double timeout_seconds,
                                 ReconnectPolicy policy) {
  auto socket = dial(host, port, timeout_seconds);
  if (!socket) return socket.status();
  return Client(std::move(*socket), host, port, timeout_seconds, policy);
}

bool Client::should_reconnect(const Status& status) const {
  return policy_.enabled && status.code() == StatusCode::kUnavailable;
}

Status Client::send_submission(std::uint64_t request_id,
                               const PendingSubmission& pending) {
  SubmitJob m{request_id,
              pending.tenant,
              pending.priority,
              pending.deadline_seconds,
              pending.warm_start,
              pending.allow_dedup,
              pending.options,
              *pending.instance};
  return socket_.send_frame(encode_submit_job(m));
}

Status Client::reconnect_and_resubmit() {
  if (!policy_.enabled) {
    return Status::unavailable("net: connection lost (reconnect disabled)");
  }
  socket_.close();
  double backoff = policy_.initial_backoff_seconds;
  for (int attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    // Jitter to [backoff/2, backoff]: a herd of clients reconnecting to a
    // freshly restarted server must not arrive in lockstep.
    const double jittered =
        backoff * (0.5 + static_cast<double>(backoff_rng_.next_below(1000)) /
                             2000.0);
    std::this_thread::sleep_for(std::chrono::duration<double>(jittered));
    backoff = std::min(backoff * 2.0, policy_.max_backoff_seconds);

    auto fresh = dial(host_, port_, connect_timeout_seconds_);
    if (!fresh) continue;
    socket_ = std::move(*fresh);
    goodbye_.reset();
    // The server re-streams each replayed job's anytime curve from the
    // start; samples collected on the dead connection would duplicate the
    // prefix in the reassembled JobResult.
    for (const auto& [request_id, pending] : pending_) {
      chunks_.erase(request_id);
    }

    // Replay every unresolved submission under its ORIGINAL request id.
    // Server-side content addressing makes this idempotent: the retry either
    // attaches to the still-running (journal-recovered) solve or re-runs the
    // same deterministic job; pump_one cross-checks the fresh ack's hash.
    bool replay_ok = true;
    for (const auto& [request_id, pending] : pending_) {
      if (!send_submission(request_id, pending).ok()) {
        replay_ok = false;
        break;
      }
    }
    if (!replay_ok) {
      socket_.close();
      continue;  // the server vanished again mid-replay — next attempt
    }
    ++reconnects_;
    return Status();
  }
  socket_.close();
  return Status::unavailable("net: reconnect attempts exhausted after " +
                             std::to_string(policy_.max_attempts) + " tries");
}

Expected<RemoteJob> Client::submit(const service::SubmitRequest& request) {
  if (!socket_.valid()) {
    return Status::unavailable("net: client is not connected");
  }
  if (!request.instance) {
    return Status::invalid_argument("net: submit requires an instance");
  }
  if (goodbye_) {
    return Status::unavailable("net: server said goodbye: " + *goodbye_);
  }

  const std::uint64_t request_id = next_request_id_++;
  // Filed before the send so a reconnect triggered anywhere below replays
  // this submission along with the rest.
  PendingSubmission pending;
  pending.instance = request.instance;
  pending.tenant = request.tenant;
  pending.priority = request.priority;
  pending.deadline_seconds = request.deadline_seconds;
  pending.warm_start = request.warm_start;
  pending.allow_dedup = request.allow_dedup;
  pending.options = request.options;
  auto [it, inserted] = pending_.emplace(request_id, std::move(pending));
  (void)inserted;

  if (auto status = send_submission(request_id, it->second); !status.ok()) {
    if (!should_reconnect(status) || !reconnect_and_resubmit().ok()) {
      pending_.erase(request_id);
      return status;
    }
  }

  // Pump until this submission's ack lands (other requests' frames file
  // away normally — a result for job 3 may well beat the ack for job 5).
  while (!acks_.contains(request_id)) {
    if (auto status = pump_one(std::nullopt); !status.ok()) {
      if (should_reconnect(status) && reconnect_and_resubmit().ok()) continue;
      pending_.erase(request_id);
      return status;
    }
  }
  auto node = acks_.extract(request_id);
  const SubmitAck& ack = node.mapped();
  if (!ack.status.ok()) {
    pending_.erase(request_id);
    return ack.status;
  }
  // The idempotency anchor: a post-reconnect replay of this request must
  // come back with this same content hash.
  if (auto live = pending_.find(request_id); live != pending_.end()) {
    live->second.acked_content_hash = ack.content_hash;
  }
  RemoteJob job;
  job.request_id = ack.request_id;
  job.job_id = ack.job_id;
  job.content_hash = ack.content_hash;
  job.deduplicated = ack.deduplicated;
  return job;
}

Expected<service::JobResult> Client::wait(
    const RemoteJob& job, std::optional<double> timeout_seconds) {
  const Deadline deadline = timeout_seconds
                                ? Deadline::after_seconds(*timeout_seconds)
                                : Deadline();
  while (!results_.contains(job.request_id)) {
    if (!socket_.valid()) {
      return Status::unavailable("net: connection closed before the result");
    }
    std::optional<double> slice;
    if (deadline.is_bounded()) {
      const double remaining = deadline.remaining_seconds();
      if (remaining <= 0.0) {
        return Status::deadline_exceeded("net: wait timed out");
      }
      slice = remaining;
    }
    if (auto status = pump_one(slice); !status.ok()) {
      if (should_reconnect(status) && reconnect_and_resubmit().ok()) continue;
      return status;
    }
  }
  auto node = results_.extract(job.request_id);
  node.mapped().id = job.job_id;  // restore the server-side identity
  return std::move(node.mapped());
}

Status Client::cancel(const RemoteJob& job) {
  if (!socket_.valid()) {
    return Status::unavailable("net: client is not connected");
  }
  return socket_.send_frame(encode_cancel_job({job.request_id}));
}

Status Client::pump_one(std::optional<double> timeout_seconds) {
  auto frame = socket_.read_frame(timeout_seconds);
  if (!frame) return frame.status();
  switch (frame->type) {
    case parallel::wire::MessageType::kSubmitAck: {
      auto ack = decode_submit_ack(frame->payload);
      if (!ack) return ack.status();
      auto pending = pending_.find(ack->request_id);
      if (pending != pending_.end() &&
          pending->second.acked_content_hash.has_value()) {
        // A replay ack for a submission the old connection already accepted.
        if (!ack->status.ok()) {
          // The retry was refused (draining / backpressure): resolve the
          // wait with that verdict instead of blocking forever.
          service::JobResult refused;
          refused.id = ack->request_id;
          refused.status = ack->status;
          refused.instance = pending->second.instance;
          refused.tenant = pending->second.tenant;
          results_[ack->request_id] = std::move(refused);
          pending_.erase(pending);
          return Status();
        }
        if (ack->content_hash != *pending->second.acked_content_hash) {
          return Status::internal(
              "net: resubmission acked a different content hash — refusing "
              "to wait on somebody else's job");
        }
        return Status();  // idempotent replay confirmed; result still coming
      }
      acks_[ack->request_id] = std::move(*ack);
      return Status();
    }
    case parallel::wire::MessageType::kJobEvent: {
      auto event = decode_job_event(frame->payload);
      if (!event) return event.status();
      auto& samples = chunks_[event->request_id];
      samples.insert(samples.end(), event->anytime.begin(),
                     event->anytime.end());
      return Status();
    }
    case parallel::wire::MessageType::kJobResult: {
      // The solution decodes against the submitter's own instance copy; a
      // result for a request we never made is a protocol violation.
      auto pending_it = pending_.begin();
      {
        // Peek the request id (first u64 of the payload) to find the
        // instance without decoding twice.
        parallel::codec::Reader r(frame->payload);
        const std::uint64_t request_id = r.u64();
        if (!r.ok()) {
          return Status::invalid_argument("net: truncated job-result frame");
        }
        pending_it = pending_.find(request_id);
      }
      if (pending_it == pending_.end()) {
        return Status::invalid_argument(
            "net: result frame for an unknown request");
      }
      auto decoded =
          decode_job_result(frame->payload, *pending_it->second.instance);
      if (!decoded) return decoded.status();
      JobResultFrame m = std::move(*decoded);

      service::JobResult result;
      result.id = m.request_id;  // wait() replaces this with the server job id
      result.origin = m.origin;
      result.status = std::move(m.status);
      result.instance = pending_it->second.instance;
      result.best = std::move(m.best);
      result.best_value = m.best_value;
      result.total_moves = m.total_moves;
      result.reached_target = m.reached_target;
      result.slave_faults = m.slave_faults;
      result.queue_seconds = m.queue_seconds;
      result.run_seconds = m.run_seconds;
      result.start_sequence = m.start_sequence;
      result.tenant = std::move(m.tenant);
      result.content_hash = m.content_hash;
      result.deduplicated = m.deduplicated;
      result.warm_started = m.warm_started;
      if (auto chunk = chunks_.find(m.request_id); chunk != chunks_.end()) {
        result.anytime = std::move(chunk->second);
        chunks_.erase(chunk);
      }
      results_[m.request_id] = std::move(result);
      pending_.erase(pending_it);
      return Status();
    }
    case parallel::wire::MessageType::kGoodbye: {
      auto goodbye = decode_goodbye(frame->payload);
      if (!goodbye) return goodbye.status();
      goodbye_ = std::move(goodbye->reason);
      return Status();
    }
    default:
      return Status::invalid_argument(
          "net: unexpected frame type from the server");
  }
}

}  // namespace pts::net
