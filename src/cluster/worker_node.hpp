#pragma once
// One worker node of the solver cluster (DESIGN.md §11): a SolverService
// with its own pool, fronted by a net::Server that speaks BOTH protocol
// ranges on the same port — the client range for job traffic (the
// coordinator forwards submissions with the exact frames pts_client uses)
// and the peer range for membership, liveness and journal replication
// (answered here via net::PeerHandler).
//
// Replica journal. Every kPeerReplicate batch is applied to a local replica
// of the coordinator's job journal, written in the STANDARD PTSJ format
// (service/journal.hpp): a promoted node can boot a coordinator straight
// off its replica with journal::recover_jobs — no translation step. The
// applied-through cursor (`last_applied_seq`) rides back on every ack and
// pong, and is what a rejoining node reports in its PeerWelcome so the
// coordinator resends only what it missed. The replica is truncated on
// restart (cursor back to 0), which makes the coordinator resend its full
// live image — correct by idempotence, simple by construction.
//
// The cursor is only valid WITHIN one coordinator incarnation: a promoted
// coordinator numbers its replication log from 1 again, so a hello carrying
// a higher `coordinator_epoch` than the last one served truncates the
// replica and resets the cursor to 0 (the successor sends its full live
// image); a hello from a LOWER epoch — a stale coordinator that lost its
// crown — is refused outright. And the cursor only advances for records
// DURABLY appended: a node without a replica journal (no path configured,
// or the open failed) acks cursor 0 forever: its acks never claim a
// replica it does not hold.
//
// Node-level chaos. Four env knobs extend the PTS_CHAOS_* family to whole-
// node failure, evaluated per inbound peer frame (tests/cluster/ and
// bench/soak_cluster drive them):
//
//   PTS_CHAOS_NODE_KILL_PPM       raise(SIGKILL) — the kill -9 failover drill
//   PTS_CHAOS_NODE_STALL_MS       sleep this long before answering (a slow,
//                                 not dead, node — must NOT be failed over
//                                 while inside the heartbeat budget)
//   PTS_CHAOS_NODE_PARTITION_PPM  open a partition window: peer frames are
//                                 swallowed unanswered until it closes
//   PTS_CHAOS_NODE_PARTITION_MS   the window's width (default 500)

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "net/server.hpp"
#include "service/solver_service.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace pts::cluster {

struct WorkerNodeConfig {
  std::string node_name = "worker";
  /// Peer hellos naming a different cluster are refused (protocol error):
  /// two clusters sharing a host must not cross-replicate.
  std::string cluster_name = "pts";
  /// Non-empty: maintain the replica journal here (truncated on start).
  std::string replica_journal_path;
  /// The node's own solver service (pool width, its own journal, tenants...).
  service::ServiceConfig service;
  /// The node's front door. `peer_handler` is overwritten (the node installs
  /// itself); everything else — bind address, port, worker_path, idle
  /// timeout — passes through.
  net::ServerConfig server;
};

class WorkerNode final : public net::PeerHandler {
 public:
  [[nodiscard]] static Expected<std::unique_ptr<WorkerNode>> start(
      WorkerNodeConfig config);
  ~WorkerNode();  ///< stop()

  WorkerNode(const WorkerNode&) = delete;
  WorkerNode& operator=(const WorkerNode&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] std::uint64_t last_applied_seq() const {
    return last_applied_seq_.load(std::memory_order_acquire);
  }
  [[nodiscard]] service::SolverService& service() { return *service_; }
  [[nodiscard]] net::Server& server() { return *server_; }

  /// Graceful wind-down: drain the front door, then stop everything.
  bool drain(double timeout_seconds) { return server_->drain(timeout_seconds); }
  void stop();

  // -- net::PeerHandler (called from the server's reader threads). --
  [[nodiscard]] Expected<std::vector<std::vector<std::uint8_t>>> on_peer_frame(
      parallel::wire::MessageType type,
      std::span<const std::uint8_t> payload) override;

 private:
  explicit WorkerNode(WorkerNodeConfig config);

  /// Applies the node-chaos knobs; true = swallow the frame unanswered
  /// (partition window). May not return at all (kill knob).
  bool chaos_gate();

  WorkerNodeConfig config_;
  std::unique_ptr<service::SolverService> service_;
  std::unique_ptr<net::Server> server_;

  std::mutex replica_mutex_;
  /// Null when replica_journal_path is empty (or the open failed).
  std::unique_ptr<service::journal::JobJournal> replica_;
  std::atomic<std::uint64_t> last_applied_seq_{0};
  /// Highest coordinator_epoch ever served; guarded by replica_mutex_.
  std::uint64_t served_epoch_ = 0;

  // -- Chaos state (knobs latched at start). --
  std::uint32_t chaos_kill_ppm_ = 0;
  std::uint32_t chaos_stall_ms_ = 0;
  std::uint32_t chaos_partition_ppm_ = 0;
  std::uint32_t chaos_partition_ms_ = 500;
  std::mutex chaos_mutex_;
  Rng chaos_rng_{0x636c7573746572ull};  // guarded by chaos_mutex_
  Deadline partition_until_;            // guarded by chaos_mutex_
};

}  // namespace pts::cluster
