#include "cluster/remote_executor.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <utility>

#include "net/client.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "parallel/codec.hpp"
#include "util/logging.hpp"

namespace pts::cluster {

namespace {

/// One batch ceiling per tick per peer keeps tick latency bounded even
/// mid-catch-up; the next tick sends the next batch 20ms later.
constexpr int kMaxReplicateBatchesPerTick = 4;
constexpr auto kTickPeriod = std::chrono::milliseconds(20);
/// A waiting run re-checks its token deadline and backoff this often (they
/// have no notifier); every other event notifies it.
constexpr auto kRunWaitSlice = std::chrono::milliseconds(10);

}  // namespace

/// One run()'s remote state, on the job thread's stack. At most ONE
/// submission is in flight for it at any time, however many failovers.
struct RemoteExecutor::Attempt {
  const service::Dispatch* job = nullptr;
  Peer* peer = nullptr;  ///< where the submission is in flight; null = none
  std::uint64_t request_id = 0;  ///< on that peer's connection
  bool acked = false;
  bool cancel_sent = false;
  bool lost = false;  ///< the node died or sent a corrupt result: resubmit
  Status refused;     ///< the node's non-OK ack
  std::optional<net::JobResultFrame> result;
  std::vector<obs::AnytimeSample> anytime;  ///< streamed chunks so far
};

struct RemoteExecutor::Peer {
  enum class State { kDown, kConnecting, kAlive };

  std::size_t index = 0;
  PeerAddress addr;
  std::string name;

  State state = State::kDown;  // guarded by mutex_
  parallel::FrameSocket socket;
  std::mutex write_mutex;
  std::thread reader;
  std::atomic<bool> reader_exited{false};
  std::atomic<double> last_heard{0.0};

  std::uint64_t ping_seq = 0;
  double last_ping = 0.0;
  std::uint32_t num_workers = 1;
  std::uint64_t sent_seq = 0;  ///< replication records streamed so far
  std::uint64_t next_request_id = 1;
  std::map<std::uint64_t, Attempt*> inflight;  ///< by request id

  double reconnect_not_before = 0.0;
  int reconnect_attempts = 0;
  bool down_handled = true;  ///< on_peer_down ran for the current incarnation
};

RemoteExecutor::RemoteExecutor(CoordinatorConfig config)
    : config_(std::move(config)) {
  for (std::size_t i = 0; i < config_.peers.size(); ++i) {
    auto peer = std::make_unique<Peer>();
    peer->index = i;
    peer->addr = config_.peers[i];
    peers_.push_back(std::move(peer));
  }
  tick_ = std::thread([this] { tick_loop(); });
}

RemoteExecutor::~RemoteExecutor() { stop(); }

void RemoteExecutor::stop() {
  if (stopping_.exchange(true)) return;
  stop_source_.request_cancel();
  if (tick_.joinable()) tick_.join();
  {
    std::scoped_lock lock(mutex_);
    for (auto& peer : peers_) {
      if (peer->socket.valid()) ::shutdown(peer->socket.fd(), SHUT_RDWR);
    }
  }
  changed_.notify_all();
  for (auto& peer : peers_) {
    if (peer->reader.joinable()) peer->reader.join();
  }
}

service::Executor::Capacity RemoteExecutor::capacity() const {
  std::scoped_lock lock(mutex_);
  Capacity capacity;
  for (const auto& peer : peers_) {
    if (peer->state != Peer::State::kAlive) continue;
    capacity.slots += peer->num_workers;
    capacity.per_job = std::max<std::size_t>(capacity.per_job, peer->num_workers);
  }
  return capacity;
}

std::size_t RemoteExecutor::alive_peers() const {
  std::scoped_lock lock(mutex_);
  return static_cast<std::size_t>(
      std::count_if(peers_.begin(), peers_.end(), [](const auto& peer) {
        return peer->state == Peer::State::kAlive;
      }));
}

CoordinatorStats RemoteExecutor::stats() const {
  std::scoped_lock lock(mutex_);
  return stats_;
}

double RemoteExecutor::jittered_backoff_locked(double base, int attempts) {
  double factor = base;
  for (int k = 1; k < attempts; ++k) factor *= 2.0;
  factor = std::min(factor, config_.max_backoff_seconds);
  return factor * (0.5 + static_cast<double>(rng_.next_below(1000)) / 2000.0);
}

Expected<service::JobResult> RemoteExecutor::run(const service::Dispatch& job) {
  const CancelToken& token = job.config.cancel;
  Attempt attempt;
  attempt.job = &job;
  int failures = 0;
  double not_before = 0.0;
  // Registered before the lock is taken: request_cancel() locks mutex_ to
  // notify changed_, so a cancel wakes the wait below at once.
  CancelWaiter wake(token, changed_, mutex_);
  std::unique_lock lock(mutex_);
  while (!attempt.result) {
    // A refusal (backpressure) is the node's verdict; retrying would only
    // run into the same wall.
    if (!attempt.refused.ok()) return attempt.refused;
    const bool stop = token.stop_requested();
    if (attempt.lost) {
      attempt.lost = false;
      // The retry re-streams the whole curve from zero; keeping the dead
      // node's prefix would duplicate the pre-failure samples.
      attempt.anytime.clear();
      if (!stop) {
        if (++failures > config_.max_resubmits) {
          ++stats_.exhausted;
          return Status::unavailable(
              "cluster: job lost to node failure too many times");
        }
        ++stats_.failovers;
        obs::metrics().counter("cluster_failovers_total").add();
        not_before = now_seconds() + jittered_backoff_locked(
                                         config_.resubmit_backoff_seconds,
                                         failures);
      }
    }
    if (stopping_.load(std::memory_order_acquire)) {
      if (attempt.peer) attempt.peer->inflight.erase(attempt.request_id);
      return Status::unavailable("cluster: coordinator shutting down");
    }
    if (attempt.peer == nullptr) {
      // Stopped with nothing in flight (never placed, or its node died):
      // there is no best to report; the service decides the status.
      if (stop) return service::JobResult{};
      Peer* peer = now_seconds() >= not_before ? least_loaded_locked() : nullptr;
      if (peer) {
        place_locked(attempt, *peer);
        continue;
      }
    } else if (stop && attempt.acked && !attempt.cancel_sent) {
      send_to_peer_locked(*attempt.peer,
                          net::encode_cancel_job({attempt.request_id}));
      attempt.cancel_sent = true;
    }
    changed_.wait_for(lock, kRunWaitSlice);
  }

  net::JobResultFrame& m = *attempt.result;
  // A kCancelled this run asked for carries the best so far; any other
  // failure is the node's own verdict.
  if (!m.status.ok() &&
      !(attempt.cancel_sent && m.status.code() == StatusCode::kCancelled)) {
    return m.status;
  }
  service::JobResult out;
  out.best = std::move(m.best);
  out.best_value = m.best_value;
  out.total_moves = m.total_moves;
  out.reached_target = m.reached_target;
  out.slave_faults = m.slave_faults;
  out.warm_started = m.warm_started;
  out.anytime = std::move(attempt.anytime);
  return out;
}

RemoteExecutor::Peer* RemoteExecutor::least_loaded_locked() {
  Peer* best = nullptr;
  double best_load = 0.0;
  for (auto& peer : peers_) {
    if (peer->state != Peer::State::kAlive) continue;
    const double load = static_cast<double>(peer->inflight.size()) /
                        static_cast<double>(peer->num_workers);
    if (!best || load < best_load) {
      best = peer.get();
      best_load = load;
    }
  }
  return best;
}

void RemoteExecutor::place_locked(Attempt& attempt, Peer& peer) {
  const service::Dispatch& job = *attempt.job;
  // The coordinator's job table is the only dedup table: nodes never
  // coalesce its submissions, and its deadlines travel as CancelJob.
  net::SubmitJob m{peer.next_request_id++,
                   job.tenant,
                   job.options.priority,
                   /*deadline_seconds=*/std::nullopt,
                   job.warm_start,
                   /*allow_dedup=*/false,
                   job.options,
                   *job.instance};
  attempt.peer = &peer;
  attempt.request_id = m.request_id;
  attempt.acked = false;
  attempt.cancel_sent = false;
  peer.inflight.emplace(m.request_id, &attempt);
  ++stats_.dispatched;
  obs::metrics().counter("cluster_dispatches_total").add();
  send_to_peer_locked(peer, net::encode_submit_job(m));
}

void RemoteExecutor::submitted(service::JobId id, const mkp::Instance& instance,
                               const service::JobOptions& options,
                               const service::TenantId& tenant,
                               service::WarmStartPolicy warm_start) {
  ReplicateRecord record;
  record.kind = ReplicateRecord::Kind::kSubmitted;
  record.job_id = id;
  record.instance = instance;
  record.options = options;
  record.tenant = tenant;
  record.warm_start = warm_start;
  std::scoped_lock lock(mutex_);
  log_append_locked(std::move(record));
}

void RemoteExecutor::dedup(service::JobId follower, service::JobId primary) {
  ReplicateRecord record;
  record.kind = ReplicateRecord::Kind::kDedup;
  record.job_id = follower;
  record.dedup_primary = primary;
  std::scoped_lock lock(mutex_);
  log_append_locked(std::move(record));
}

void RemoteExecutor::resolved(service::JobId id) {
  ReplicateRecord record;
  record.kind = ReplicateRecord::Kind::kResolved;
  record.job_id = id;
  std::scoped_lock lock(mutex_);
  log_append_locked(std::move(record));
}

void RemoteExecutor::log_append_locked(ReplicateRecord record) {
  record.seq = next_seq_++;
  log_.push_back(std::move(record));
  if (log_.size() > 512) compact_log_locked();
}

void RemoteExecutor::compact_log_locked() {
  // Drop every record belonging to a resolved job id (both sides of the
  // pair), keeping surviving records' sequence numbers untouched: a replica
  // cursor simply skips the gaps, and what the gaps held was a no-op for it.
  std::map<service::JobId, bool> resolved;
  for (const auto& record : log_) {
    if (record.kind == ReplicateRecord::Kind::kResolved) {
      resolved[record.job_id] = true;
    }
  }
  if (resolved.empty()) return;
  std::deque<ReplicateRecord> live;
  for (auto& record : log_) {
    if (!resolved.contains(record.job_id)) live.push_back(std::move(record));
  }
  log_ = std::move(live);
}

void RemoteExecutor::send_to_peer_locked(Peer& peer,
                                         const std::vector<std::uint8_t>& frame) {
  std::scoped_lock wlock(peer.write_mutex);
  if (!peer.socket.valid()) return;
  (void)peer.socket.send_frame(frame);  // reader/heartbeat notices failures
}

void RemoteExecutor::tick_loop() {
  const CancelToken stop = stop_source_.token();
  while (!stop.cancel_requested()) {
    connect_peers();
    {
      std::scoped_lock lock(mutex_);
      heartbeat_locked();
      replicate_locked();
    }
    std::this_thread::sleep_for(kTickPeriod);
  }
}

void RemoteExecutor::connect_peers() {
  const double now = now_seconds();
  std::vector<Peer*> ready;
  {
    std::scoped_lock lock(mutex_);
    for (auto& peer : peers_) {
      if (peer->state != Peer::State::kDown) continue;
      if (now < peer->reconnect_not_before) continue;
      // A previous reader must be fully out before the socket is replaced;
      // reader_exited is its very last store, so this join cannot block on
      // the mutex this thread holds.
      if (peer->reader.joinable() &&
          !peer->reader_exited.load(std::memory_order_acquire)) {
        continue;
      }
      if (peer->reader.joinable()) peer->reader.join();
      peer->state = Peer::State::kConnecting;
      ready.push_back(peer.get());
    }
  }

  for (Peer* peer : ready) {
    auto socket = net::dial(peer->addr.host, peer->addr.port,
                            config_.connect_timeout_seconds);
    bool joined = false;
    PeerWelcome welcome;
    if (socket) {
      PeerHello hello;
      hello.cluster_name = config_.cluster_name;
      hello.coordinator_epoch = config_.epoch;
      if (socket->send_frame(encode_peer_hello(hello)).ok()) {
        auto frame =
            socket->read_frame(config_.connect_timeout_seconds, stop_source_.token());
        if (frame &&
            frame->type == parallel::wire::MessageType::kPeerWelcome) {
          if (auto decoded = decode_peer_welcome(frame->payload); decoded) {
            welcome = std::move(*decoded);
            joined = true;
          }
        }
      }
    }

    std::scoped_lock lock(mutex_);
    if (stopping_.load(std::memory_order_acquire)) return;
    if (!joined) {
      peer->state = Peer::State::kDown;
      ++peer->reconnect_attempts;
      peer->reconnect_not_before =
          now_seconds() + jittered_backoff_locked(config_.resubmit_backoff_seconds,
                                                  peer->reconnect_attempts);
      continue;
    }
    peer->socket = std::move(*socket);
    peer->name = welcome.node_name;
    peer->num_workers = std::max<std::uint32_t>(1, welcome.num_workers);
    // The welcome's cursor drives catch-up: replicate_locked resends every
    // record past it (a truncated replica reports 0 → the full live image).
    peer->sent_seq = welcome.last_applied_seq;
    peer->last_heard.store(now_seconds(), std::memory_order_release);
    peer->last_ping = 0.0;
    peer->reconnect_attempts = 0;
    peer->down_handled = false;
    peer->reader_exited.store(false, std::memory_order_release);
    peer->state = Peer::State::kAlive;
    ++stats_.nodes_connected;
    obs::metrics().counter("cluster_peer_connects_total").add();
    PTS_LOG_INFO("cluster: peer %zu ('%s' %s:%u) joined, applied_seq=%llu",
                 peer->index, peer->name.c_str(), peer->addr.host.c_str(),
                 static_cast<unsigned>(peer->addr.port),
                 static_cast<unsigned long long>(welcome.last_applied_seq));
    peer->reader = std::thread([this, peer] { reader_loop(*peer); });
    changed_.notify_all();  // runs waiting for a node can place now
  }
}

void RemoteExecutor::heartbeat_locked() {
  const double now = now_seconds();
  const double budget =
      config_.heartbeat_interval_seconds * config_.heartbeat_misses;
  for (auto& peer : peers_) {
    if (peer->state != Peer::State::kAlive) continue;
    if (now - peer->last_heard.load(std::memory_order_acquire) > budget) {
      PTS_LOG_WARN("cluster: peer %zu ('%s') missed %d heartbeats — failing over",
                   peer->index, peer->name.c_str(), config_.heartbeat_misses);
      on_peer_down_locked(*peer);
      continue;
    }
    if (now - peer->last_ping >= config_.heartbeat_interval_seconds) {
      peer->last_ping = now;
      send_to_peer_locked(*peer, encode_peer_ping({++peer->ping_seq}));
    }
  }
}

void RemoteExecutor::replicate_locked() {
  const std::uint64_t latest = next_seq_ - 1;
  for (auto& peer : peers_) {
    if (peer->state != Peer::State::kAlive) continue;
    for (int batch_no = 0;
         peer->sent_seq < latest && batch_no < kMaxReplicateBatchesPerTick;
         ++batch_no) {
      PeerReplicate batch;
      std::uint64_t high = peer->sent_seq;
      for (const auto& record : log_) {
        if (record.seq <= peer->sent_seq) continue;
        batch.records.push_back(record);
        high = record.seq;
        if (batch.records.size() >= kMaxReplicateRecordsPerFrame) break;
      }
      if (batch.records.empty()) {
        // Everything past the cursor was compacted away (resolved pairs):
        // advance the cursor — those records are no-ops for the replica.
        peer->sent_seq = latest;
        break;
      }
      stats_.records_replicated += batch.records.size();
      peer->sent_seq = high;
      send_to_peer_locked(*peer, encode_peer_replicate(batch));
    }
  }
}

void RemoteExecutor::on_peer_down_locked(Peer& peer) {
  if (peer.down_handled) return;
  if (stopping_.load(std::memory_order_acquire)) return;  // stop() owns cleanup
  peer.down_handled = true;
  peer.state = Peer::State::kDown;
  if (peer.socket.valid()) ::shutdown(peer.socket.fd(), SHUT_RDWR);
  ++stats_.nodes_lost;
  obs::metrics().counter("cluster_peer_losses_total").add();
  // Every run in flight here fails over (its run() loop resubmits).
  for (const auto& [request_id, attempt] : peer.inflight) {
    attempt->peer = nullptr;
    attempt->lost = true;
  }
  peer.inflight.clear();
  changed_.notify_all();

  ++peer.reconnect_attempts;
  peer.reconnect_not_before =
      now_seconds() + jittered_backoff_locked(config_.resubmit_backoff_seconds,
                                              peer.reconnect_attempts);
}

void RemoteExecutor::reader_loop(Peer& peer) {
  const CancelToken stop = stop_source_.token();
  for (;;) {
    auto frame = peer.socket.read_frame(0.1, stop);
    if (!frame) {
      if (frame.status().code() == StatusCode::kDeadlineExceeded) {
        if (stop.cancel_requested()) break;
        continue;  // liveness is the heartbeat's job, not this timeout's
      }
      break;  // kUnavailable (node died), kCancelled (stop), or garbage
    }
    peer.last_heard.store(now_seconds(), std::memory_order_release);

    using parallel::wire::MessageType;
    switch (frame->type) {
      case MessageType::kSubmitAck: {
        auto ack = net::decode_submit_ack(frame->payload);
        if (!ack) break;
        std::scoped_lock lock(mutex_);
        auto inflight = peer.inflight.find(ack->request_id);
        if (inflight == peer.inflight.end()) break;
        Attempt& attempt = *inflight->second;
        if (ack->status.code() == StatusCode::kUnavailable) {
          // A draining node is leaving: fail its runs over now rather than
          // resubmitting into it until its socket closes.
          on_peer_down_locked(peer);
        } else if (!ack->status.ok()) {
          attempt.refused = ack->status;
          attempt.peer = nullptr;
          peer.inflight.erase(inflight);
        } else {
          attempt.acked = true;
          // Failover resubmits the same bytes: a node that hashes them
          // differently is a bug worth shouting about.
          if (ack->content_hash != attempt.job->content_hash) {
            PTS_LOG_ERROR("cluster: node acked hash %016llx, expected %016llx",
                          static_cast<unsigned long long>(ack->content_hash),
                          static_cast<unsigned long long>(
                              attempt.job->content_hash));
          }
        }
        changed_.notify_all();
        break;
      }
      case MessageType::kJobEvent: {
        auto event = net::decode_job_event(frame->payload);
        if (!event) break;
        std::scoped_lock lock(mutex_);
        auto inflight = peer.inflight.find(event->request_id);
        if (inflight == peer.inflight.end()) break;
        auto& anytime = inflight->second->anytime;
        anytime.insert(anytime.end(), event->anytime.begin(),
                       event->anytime.end());
        break;
      }
      case MessageType::kJobResult: {
        // Peek the request id to route; decode against the run's instance.
        parallel::codec::Reader r(frame->payload);
        const std::uint64_t request_id = r.u64();
        if (!r.ok()) break;
        std::scoped_lock lock(mutex_);
        auto inflight = peer.inflight.find(request_id);
        if (inflight == peer.inflight.end()) break;  // failed over already
        Attempt& attempt = *inflight->second;
        peer.inflight.erase(inflight);
        attempt.peer = nullptr;
        auto decoded =
            net::decode_job_result(frame->payload, *attempt.job->instance);
        if (decoded) {
          attempt.result = std::move(*decoded);
        } else {
          attempt.lost = true;  // a corrupt result costs a failover
        }
        changed_.notify_all();
        break;
      }
      default:
        // Pongs and replication acks only prove liveness (stamped above);
        // a Goodbye means EOF follows; unknown well-framed traffic from a
        // newer node is tolerated.
        break;
    }
  }
  {
    std::scoped_lock lock(mutex_);
    on_peer_down_locked(peer);
  }
  peer.reader_exited.store(true, std::memory_order_release);
}

}  // namespace pts::cluster
