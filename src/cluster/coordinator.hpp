#pragma once
// Cluster coordinator (DESIGN.md §11): the node that owns client-facing job
// identity and shards the work across worker nodes. It implements
// net::JobGateway, so the SAME net::Server that fronts a single
// SolverService in pts_serve fronts a whole cluster in pts_cluster — clients
// keep the exact pts_client protocol and cannot tell the difference.
//
// It is nothing but a SolverService — the one job table, with its
// admission rules, dedup, WFQ queue, deadlines, cancel and journal —
// whose executor and replication sink is a RemoteExecutor: dispatched jobs
// run on worker nodes (with heartbeat failover), and the service's journal
// records stream to the nodes' replica journals, so any node's replica can
// boot a replacement coordinator (journal_path pointed at a copy of it).
//
// stop() resolves the remaining waiters kUnavailable WITHOUT striking their
// journal records, so a restarted (or promoted) coordinator recovers them.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/server.hpp"
#include "service/solver_service.hpp"

namespace pts::cluster {

struct PeerAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct CoordinatorConfig {
  std::string cluster_name = "pts";
  /// The worker-node endpoints. Fixed membership for now: nodes may die and
  /// rejoin, but the roster is set at start.
  std::vector<PeerAddress> peers;
  /// Incarnation number, bumped by whoever promotes a replacement
  /// coordinator; workers use it to tell a successor from a reconnect.
  std::uint64_t epoch = 1;
  double heartbeat_interval_seconds = 0.1;
  /// Dead after this many silent intervals. The product must comfortably
  /// exceed any PTS_CHAOS_NODE_STALL_MS a test runs with — slow is not dead.
  int heartbeat_misses = 5;
  /// Failovers per dispatched job before its waiters resolve kUnavailable.
  int max_resubmits = 3;
  /// Resubmission backoff: initial * 2^k, jittered to [0.5, 1.0]x, capped.
  double resubmit_backoff_seconds = 0.05;
  double max_backoff_seconds = 2.0;
  double connect_timeout_seconds = 0.5;
  /// Non-empty: the coordinator's own job journal. Point it at a worker's
  /// replica file to promote that replica into a live coordinator.
  std::string journal_path;
};

/// Monotone counters (tests and the failover bench read these).
struct CoordinatorStats {
  std::uint64_t submitted = 0;        ///< every submit() call, refused ones too
  std::uint64_t dedup_hits = 0;       ///< waiters attached to an existing job
  std::uint64_t dispatched = 0;       ///< remote submissions sent (incl. retries)
  std::uint64_t failovers = 0;        ///< resubmits: node died or sent garbage
  std::uint64_t exhausted = 0;        ///< jobs that ran out of resubmits
  std::uint64_t nodes_lost = 0;
  std::uint64_t nodes_connected = 0;  ///< successful handshakes (incl. rejoins)
  std::uint64_t records_replicated = 0;
  std::uint64_t resolved = 0;         ///< waiter futures resolved, any status
};

class RemoteExecutor;

class Coordinator final : public net::JobGateway {
 public:
  /// Validates the config, starts the peer mesh, then the service (which
  /// replays journal_path — the promotion path). Peers connect
  /// asynchronously — poll alive_peers() to wait for the mesh.
  [[nodiscard]] static Expected<std::unique_ptr<Coordinator>> start(
      CoordinatorConfig config);
  ~Coordinator() override;  ///< stop()

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  // -- net::JobGateway. --
  [[nodiscard]] Expected<service::JobHandle> submit(
      service::SubmitRequest request) override;
  bool cancel(service::JobId id) override;

  /// Jobs replayed from journal_path at start, already re-submitted through
  /// the normal path (so they re-coalesce and re-journal). Single-shot.
  using Recovered = service::SolverService::Submission;
  [[nodiscard]] std::vector<Recovered> take_recovered();

  [[nodiscard]] std::size_t alive_peers() const;
  [[nodiscard]] CoordinatorStats stats() const;

  /// Resolves every outstanding waiter kUnavailable (journal records left
  /// open — recovery picks them up), closes peer links, joins all threads.
  void stop();

 private:
  Coordinator() = default;

  std::unique_ptr<RemoteExecutor> executor_;  // outlives service_
  std::unique_ptr<service::SolverService> service_;
};

}  // namespace pts::cluster
