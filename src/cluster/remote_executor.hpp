#pragma once
// The cluster's executor and replication sink (DESIGN.md §11): the
// coordinator's SolverService dispatches its jobs here, and they run on
// worker nodes; the service's journal records stream from here to the
// nodes' replica journals.
//
// Peers. A tick thread dials every roster entry, handshakes
// (PeerHello/PeerWelcome) and pings each live node every heartbeat
// interval. A node silent for `heartbeat_misses` intervals is dead — kill -9,
// partition and stall-past-budget look identical from here. Capacity is the
// sum of the pool widths the live nodes advertised in their welcome; the
// widest one bounds a single job.
//
// Runs. run() places the job on the live node with the fewest of this
// executor's runs per worker (SubmitJob, the exact frames pts_client uses),
// gathers its JobEvent anytime chunks and returns its JobResult. When the
// run's token fires it sends CancelJob and still waits for the node's
// best-so-far. A node that dies under a run costs one failover: the same
// solve goes to a survivor after a jittered exponential backoff, at most
// once per failure, and after `max_resubmits` failovers the run fails
// kUnavailable. The engine is deterministic, so a resubmitted job
// reproduces the trajectory the dead node was computing — failover costs
// wall-clock, never result quality.
//
// Replication. Every kSubmitted/kDedup/kResolved record the service writes
// gets a monotone sequence number and streams to every live node
// (kPeerReplicate), which applies it to a PTSJ replica journal — any node's
// replica can boot a replacement coordinator. A (re)joining node reports its
// applied-through cursor in PeerWelcome and receives exactly the records
// past it; records of resolved jobs are compacted out of the log.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cluster/coordinator.hpp"
#include "cluster/peer_protocol.hpp"
#include "service/solver_service.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace pts::cluster {

class RemoteExecutor final : public service::Executor,
                             public service::RecordSink {
 public:
  /// Starts the tick thread; peers connect asynchronously.
  explicit RemoteExecutor(CoordinatorConfig config);
  ~RemoteExecutor() override;  ///< stop()

  RemoteExecutor(const RemoteExecutor&) = delete;
  RemoteExecutor& operator=(const RemoteExecutor&) = delete;

  // -- service::Executor. --
  [[nodiscard]] Capacity capacity() const override;
  [[nodiscard]] Expected<service::JobResult> run(
      const service::Dispatch& job) override;

  // -- service::RecordSink: appends to the replication log. --
  void submitted(service::JobId id, const mkp::Instance& instance,
                 const service::JobOptions& options,
                 const service::TenantId& tenant,
                 service::WarmStartPolicy warm_start) override;
  void dedup(service::JobId follower, service::JobId primary) override;
  void resolved(service::JobId id) override;

  [[nodiscard]] std::size_t alive_peers() const;
  /// The peer-side counters: dispatches, failovers, peers, replication.
  [[nodiscard]] CoordinatorStats stats() const;

  /// Closes every peer link and joins all threads. Runs still waiting
  /// return kUnavailable. Idempotent.
  void stop();

 private:
  struct Peer;
  struct Attempt;

  [[nodiscard]] double now_seconds() const { return clock_.elapsed_seconds(); }
  [[nodiscard]] double jittered_backoff_locked(double base, int attempts);
  /// The live peer with the fewest in-flight runs per worker, or null.
  [[nodiscard]] Peer* least_loaded_locked();
  void place_locked(Attempt& attempt, Peer& peer);
  void log_append_locked(ReplicateRecord record);
  void compact_log_locked();

  void tick_loop();
  void connect_peers();  ///< dials outside the lock; installs under it
  void heartbeat_locked();
  void replicate_locked();
  void reader_loop(Peer& peer);
  void on_peer_down_locked(Peer& peer);
  /// Sends one frame on the peer socket (write mutex). Failure is left for
  /// the reader/heartbeat to notice — sends are fire-and-forget here.
  void send_to_peer_locked(Peer& peer, const std::vector<std::uint8_t>& frame);

  CoordinatorConfig config_;
  Stopwatch clock_;  ///< executor-relative monotonic time
  CancelSource stop_source_;
  std::atomic<bool> stopping_{false};

  mutable std::mutex mutex_;
  /// Notified on every run-visible event: ack, result, peer up or down,
  /// cancel (runs register it on their token), stop.
  std::condition_variable changed_;
  Rng rng_{0x636f6f7264ull};  // backoff jitter; guarded by mutex_

  std::uint64_t next_seq_ = 1;       ///< replication sequence
  std::deque<ReplicateRecord> log_;  ///< replication log (compacted in place)
  std::vector<std::unique_ptr<Peer>> peers_;
  CoordinatorStats stats_;

  std::thread tick_;  // started last, joined by stop()
};

}  // namespace pts::cluster
