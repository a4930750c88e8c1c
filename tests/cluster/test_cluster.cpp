// In-process cluster tests (DESIGN.md §11): a real Coordinator and real
// WorkerNodes on loopback ephemeral ports, exercising the failover
// invariants directly — every accepted future resolves through node death,
// dedup-coalesced submissions share ONE remote solve, replicas catch up,
// and a coordinator (re)started off a journal or replica re-owns the open
// jobs. Node death here is WorkerNode::stop() (the socket vanishes exactly
// as it does on kill -9); the real-SIGKILL drill lives in
// test_cluster_bin.cpp against the pts_cluster binary.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.hpp"
#include "cluster/peer_protocol.hpp"
#include "cluster/worker_node.hpp"
#include "mkp/generator.hpp"
#include "parallel/wire.hpp"

namespace pts::cluster {
namespace {

using namespace std::chrono_literals;

std::shared_ptr<const mkp::Instance> make_instance(std::uint64_t seed = 1) {
  return std::make_shared<const mkp::Instance>(
      mkp::generate_gk({.num_items = 30, .num_constraints = 4}, seed));
}

service::SubmitRequest make_request(std::uint64_t seed = 7,
                                    double budget = 0.2) {
  service::SubmitRequest request;
  request.instance = make_instance(seed);
  request.tenant = "prod";
  request.options.preset = "quick";
  request.options.time_budget_seconds = budget;
  request.options.seed = seed;
  return request;
}

std::unique_ptr<WorkerNode> start_worker(const std::string& replica = "",
                                         std::uint16_t port = 0) {
  WorkerNodeConfig config;
  config.replica_journal_path = replica;
  config.service.num_workers = 2;
  config.server.port = port;
  auto node = WorkerNode::start(std::move(config));
  EXPECT_TRUE(node) << node.status().to_string();
  return node ? std::move(*node) : nullptr;
}

CoordinatorConfig fast_config(std::vector<std::uint16_t> ports) {
  CoordinatorConfig config;
  for (const auto port : ports) config.peers.push_back({"127.0.0.1", port});
  config.heartbeat_interval_seconds = 0.05;
  config.heartbeat_misses = 4;
  config.resubmit_backoff_seconds = 0.02;
  return config;
}

/// Polls until the coordinator reports `n` live peers (mesh formation is
/// asynchronous by design).
void wait_for_peers(Coordinator& coordinator, std::size_t n,
                    double timeout_seconds = 10.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (coordinator.alive_peers() < n &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_EQ(coordinator.alive_peers(), n);
}

TEST(Cluster, SubmitThroughCoordinatorResolvesOk) {
  auto w1 = start_worker();
  auto w2 = start_worker();
  ASSERT_TRUE(w1 && w2);
  auto coordinator =
      Coordinator::start(fast_config({w1->port(), w2->port()}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 2);

  auto handle = (*coordinator)->submit(make_request());
  ASSERT_TRUE(handle) << handle.status().to_string();
  auto result = handle->result.get();
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_GT(result.best_value, 0.0);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_TRUE(result.best->is_feasible());
  EXPECT_EQ(result.tenant, "prod");
  EXPECT_EQ((*coordinator)->stats().dispatched, 1u);
}

TEST(Cluster, DedupCoalescesIntoOneRemoteSolve) {
  auto w1 = start_worker();
  ASSERT_TRUE(w1);
  auto coordinator = Coordinator::start(fast_config({w1->port()}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 1);

  // Identical instance + solve shape from two callers: one remote solve,
  // two futures. A longer budget keeps the first in flight while the
  // second arrives.
  auto first = (*coordinator)->submit(make_request(3, /*budget=*/1.0));
  ASSERT_TRUE(first) << first.status().to_string();
  auto second = (*coordinator)->submit(make_request(3, /*budget=*/1.0));
  ASSERT_TRUE(second) << second.status().to_string();
  EXPECT_FALSE(first->deduplicated);
  EXPECT_TRUE(second->deduplicated);
  EXPECT_NE(first->id, second->id);
  EXPECT_EQ(first->content_hash, second->content_hash);

  auto r1 = first->result.get();
  auto r2 = second->result.get();
  EXPECT_TRUE(r1.status.ok()) << r1.status.to_string();
  EXPECT_TRUE(r2.status.ok()) << r2.status.to_string();
  EXPECT_EQ(r1.best_value, r2.best_value);
  EXPECT_TRUE(r2.deduplicated);

  const auto stats = (*coordinator)->stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.dedup_hits, 1u);
  EXPECT_EQ(stats.dispatched, 1u);  // ONE remote solve for both waiters
}

TEST(Cluster, DedupCoalescesAcrossTenants) {
  // The cluster keys on the service's own dedup key: identical work from
  // two tenants is ONE remote solve, exactly as on a single pts_serve.
  auto w1 = start_worker();
  ASSERT_TRUE(w1);
  auto coordinator = Coordinator::start(fast_config({w1->port()}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 1);
  const auto before = (*coordinator)->stats();

  auto prod = make_request(5, /*budget=*/1.0);
  auto batch = make_request(5, /*budget=*/1.0);
  batch.tenant = "batch";
  batch.instance = make_instance(5);  // equal bytes, a separate object
  auto first = (*coordinator)->submit(prod);
  ASSERT_TRUE(first) << first.status().to_string();
  auto second = (*coordinator)->submit(batch);
  ASSERT_TRUE(second) << second.status().to_string();
  EXPECT_FALSE(first->deduplicated);
  EXPECT_TRUE(second->deduplicated);

  auto r1 = first->result.get();
  auto r2 = second->result.get();
  EXPECT_TRUE(r1.status.ok()) << r1.status.to_string();
  EXPECT_TRUE(r2.status.ok()) << r2.status.to_string();
  EXPECT_EQ(r1.best_value, r2.best_value);

  const auto after = (*coordinator)->stats();
  EXPECT_EQ(after.dispatched - before.dispatched, 1u);
  EXPECT_EQ(after.dedup_hits - before.dedup_hits, 1u);
}

TEST(Cluster, DedupOptOutGetsItsOwnSolve) {
  auto w1 = start_worker();
  ASSERT_TRUE(w1);
  auto coordinator = Coordinator::start(fast_config({w1->port()}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 1);

  auto request = make_request(4, /*budget=*/0.3);
  request.allow_dedup = false;
  auto first = (*coordinator)->submit(request);
  auto second = (*coordinator)->submit(request);
  ASSERT_TRUE(first && second);
  EXPECT_FALSE(second->deduplicated);
  EXPECT_TRUE(first->result.get().status.ok());
  EXPECT_TRUE(second->result.get().status.ok());
  EXPECT_EQ((*coordinator)->stats().dispatched, 2u);
}

TEST(Cluster, InvalidOptionsAreRefusedAtAdmission) {
  // The cluster door applies the service's admission rules, exactly as
  // pts_serve does: bad options come back from submit(), nothing ships.
  auto w1 = start_worker();
  ASSERT_TRUE(w1);
  auto coordinator = Coordinator::start(fast_config({w1->port()}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 1);
  const auto before = (*coordinator)->stats();

  auto unknown_preset = make_request(64);
  unknown_preset.options.preset = "warp-speed";
  auto refused = (*coordinator)->submit(unknown_preset);
  ASSERT_FALSE(refused);
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
      << refused.status().to_string();

  auto no_budget = make_request(64, /*budget=*/0.0);
  refused = (*coordinator)->submit(no_budget);
  ASSERT_FALSE(refused);
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
      << refused.status().to_string();

  const auto after = (*coordinator)->stats();
  EXPECT_EQ(after.dispatched - before.dispatched, 0u);
}

/// Polls until `node` runs a job; false if none started within the timeout.
bool wait_until_running(WorkerNode& node, double timeout_seconds = 10.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (node.service().running_jobs() == 0) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(2ms);
  }
  return true;
}

TEST(Cluster, CancellingTheOnlyWaiterStopsTheRemoteSolve) {
  auto w1 = start_worker();
  ASSERT_TRUE(w1);
  auto coordinator = Coordinator::start(fast_config({w1->port()}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 1);

  auto handle = (*coordinator)->submit(make_request(61, /*budget=*/8.0));
  ASSERT_TRUE(handle) << handle.status().to_string();
  ASSERT_TRUE(wait_until_running(*w1)) << "the job never started on the node";

  const auto cancelled_at = std::chrono::steady_clock::now();
  EXPECT_TRUE((*coordinator)->cancel(handle->id));
  auto result = handle->result.get();
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled)
      << result.status.to_string();
  EXPECT_FALSE((*coordinator)->cancel(handle->id));  // already resolved

  // The node's solve stops well inside its 8 s budget.
  while (w1->service().running_jobs() > 0 &&
         std::chrono::steady_clock::now() - cancelled_at < 8s) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(w1->service().running_jobs(), 0u);
  EXPECT_LT(std::chrono::steady_clock::now() - cancelled_at, 3s);
}

TEST(Cluster, CancellingOneCoalescedWaiterKeepsTheOther) {
  auto w1 = start_worker();
  ASSERT_TRUE(w1);
  auto coordinator = Coordinator::start(fast_config({w1->port()}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 1);
  const auto before = (*coordinator)->stats();

  auto first = (*coordinator)->submit(make_request(62, /*budget=*/1.0));
  ASSERT_TRUE(first) << first.status().to_string();
  auto second = (*coordinator)->submit(make_request(62, /*budget=*/1.0));
  ASSERT_TRUE(second) << second.status().to_string();
  EXPECT_TRUE(second->deduplicated);

  EXPECT_TRUE((*coordinator)->cancel(second->id));
  auto r2 = second->result.get();
  EXPECT_EQ(r2.status.code(), StatusCode::kCancelled) << r2.status.to_string();
  auto r1 = first->result.get();
  EXPECT_TRUE(r1.status.ok()) << r1.status.to_string();
  EXPECT_GT(r1.best_value, 0.0);

  const auto after = (*coordinator)->stats();
  EXPECT_EQ(after.dispatched - before.dispatched, 1u);
}

TEST(Cluster, ShortDeadlineOnASharedRunningSolveExpiresAlone) {
  auto w1 = start_worker();
  ASSERT_TRUE(w1);
  auto coordinator = Coordinator::start(fast_config({w1->port()}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 1);
  const auto before = (*coordinator)->stats();

  auto first = (*coordinator)->submit(make_request(63, /*budget=*/1.0));
  ASSERT_TRUE(first) << first.status().to_string();
  ASSERT_TRUE(wait_until_running(*w1)) << "the job never started on the node";
  auto hurried = make_request(63, /*budget=*/1.0);
  hurried.deadline_seconds = 0.1;
  auto second = (*coordinator)->submit(hurried);
  ASSERT_TRUE(second) << second.status().to_string();
  EXPECT_TRUE(second->deduplicated);

  auto r2 = second->result.get();
  EXPECT_EQ(r2.status.code(), StatusCode::kDeadlineExceeded)
      << r2.status.to_string();
  auto r1 = first->result.get();
  EXPECT_TRUE(r1.status.ok()) << r1.status.to_string();
  EXPECT_GT(r1.best_value, 0.0);

  const auto after = (*coordinator)->stats();
  EXPECT_EQ(after.dispatched - before.dispatched, 1u);
}

TEST(Cluster, WorkerDeathFailsJobOverToSurvivor) {
  auto w1 = start_worker();
  auto w2 = start_worker();
  ASSERT_TRUE(w1 && w2);
  auto coordinator =
      Coordinator::start(fast_config({w1->port(), w2->port()}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 2);

  auto handle = (*coordinator)->submit(make_request(9, /*budget=*/5.0));
  ASSERT_TRUE(handle) << handle.status().to_string();

  // Find the node actually running the job and kill THAT one.
  WorkerNode* victim = nullptr;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!victim && std::chrono::steady_clock::now() < deadline) {
    if (w1->service().running_jobs() > 0) victim = w1.get();
    else if (w2->service().running_jobs() > 0) victim = w2.get();
    else std::this_thread::sleep_for(5ms);
  }
  ASSERT_NE(victim, nullptr) << "job never started on either node";
  victim->stop();  // connection vanishes exactly as on kill -9

  auto result = handle->result.get();
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_GT(result.best_value, 0.0);
  const auto stats = (*coordinator)->stats();
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_GE(stats.nodes_lost, 1u);
  EXPECT_GE(stats.dispatched, 2u);  // original + at least one resubmission
  EXPECT_EQ(stats.exhausted, 0u);
}

TEST(Cluster, DeadlineExpiresWhileNoNodeIsAlive) {
  // No worker listens on this roster, so the job can never dispatch; its
  // per-waiter deadline must still fire.
  auto coordinator = Coordinator::start(fast_config({1}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  auto request = make_request(5);
  request.deadline_seconds = 0.2;
  auto handle = (*coordinator)->submit(request);
  ASSERT_TRUE(handle) << handle.status().to_string();
  auto result = handle->result.get();
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(Cluster, StopResolvesOutstandingWaitersUnavailable) {
  auto coordinator = Coordinator::start(fast_config({1}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  auto handle = (*coordinator)->submit(make_request(6));
  ASSERT_TRUE(handle) << handle.status().to_string();
  (*coordinator)->stop();
  auto result = handle->result.get();
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
}

TEST(Cluster, ReplicaCatchesUpAndBootsAPromotedCoordinator) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pts_cluster_promote_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto replica = (dir / "w1.replica").string();

  auto w1 = start_worker(replica);
  ASSERT_TRUE(w1);
  const auto port = w1->port();
  auto config = fast_config({port});
  config.journal_path = (dir / "coord.journal").string();
  auto coordinator = Coordinator::start(std::move(config));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 1);

  // One resolved job (2 records), then one left in flight (1 record).
  auto done = (*coordinator)->submit(make_request(21, /*budget=*/0.1));
  ASSERT_TRUE(done) << done.status().to_string();
  EXPECT_TRUE(done->result.get().status.ok());
  auto open = (*coordinator)->submit(make_request(22, /*budget=*/5.0));
  ASSERT_TRUE(open) << open.status().to_string();

  // The worker's replica must apply all three records.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (w1->last_applied_seq() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_GE(w1->last_applied_seq(), 3u);

  // Coordinator dies (gracefully here; its journal records stay open).
  (*coordinator)->stop();
  EXPECT_EQ(open->result.get().status.code(), StatusCode::kUnavailable);

  // Promotion: a NEW coordinator boots off a COPY of the worker's replica
  // and re-owns the in-flight job. The replica is the standard PTSJ format,
  // so this is just journal_path pointed at the snapshot. (A copy, not the
  // live file: the epoch-2 handshake below truncates w1's replica, which
  // must not clobber the promoted coordinator's own journal.)
  const auto promoted_journal = (dir / "promoted.journal").string();
  std::filesystem::copy_file(replica, promoted_journal);
  auto promoted_config = fast_config({port});
  promoted_config.journal_path = promoted_journal;
  promoted_config.epoch = 2;
  auto promoted = Coordinator::start(std::move(promoted_config));
  ASSERT_TRUE(promoted) << promoted.status().to_string();
  auto recovered = (*promoted)->take_recovered();
  ASSERT_EQ(recovered.size(), 1u);  // the resolved job must NOT come back
  auto result = recovered[0].result.get();
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_GT(result.best_value, 0.0);

  // The epoch bump must have reset w1's cursor: the promoted coordinator
  // numbers its replication log from 1 again (seq 1 = the recovered job's
  // kSubmitted, seq 2 = its kResolved above), so w1's stale epoch-1 cursor
  // of 3 would swallow both and stall replication to it for good.
  const auto epoch_deadline = std::chrono::steady_clock::now() + 10s;
  while (w1->last_applied_seq() != 2 &&
         std::chrono::steady_clock::now() < epoch_deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(w1->last_applied_seq(), 2u);

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(Cluster, WorkerRefusesAStaleCoordinatorEpoch) {
  // Driven through the handler directly: once epoch 5 has been served, a
  // hello from epoch 4 — the deposed coordinator waking back up — must be
  // refused, not silently re-adopted.
  auto w1 = start_worker();
  ASSERT_TRUE(w1);
  const auto hello5 = encode_peer_hello({"pts", 5});
  const std::span<const std::uint8_t> payload5 =
      std::span(hello5).subspan(parallel::wire::kHeaderBytes);
  auto first = w1->on_peer_frame(parallel::wire::MessageType::kPeerHello,
                                 payload5);
  ASSERT_TRUE(first) << first.status().to_string();

  const auto hello4 = encode_peer_hello({"pts", 4});
  const std::span<const std::uint8_t> payload4 =
      std::span(hello4).subspan(parallel::wire::kHeaderBytes);
  auto stale = w1->on_peer_frame(parallel::wire::MessageType::kPeerHello,
                                 payload4);
  ASSERT_FALSE(stale);
  EXPECT_EQ(stale.status().code(), StatusCode::kInvalidArgument);

  // The incumbent epoch reconnecting is fine (cursor kept, no refusal).
  auto again = w1->on_peer_frame(parallel::wire::MessageType::kPeerHello,
                                 payload5);
  EXPECT_TRUE(again) << again.status().to_string();
}

TEST(Cluster, CoordinatorJournalKeepsDedupProvenanceOnReplay) {
  // The coordinator writes a coalesced follower as kSubmitted THEN kDedup;
  // replay only honors a link whose follower is already open, so the
  // reverse order would silently drop the provenance.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pts_cluster_dedup_journal_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  auto config = fast_config({1});  // no node listens: jobs stay open
  config.journal_path = (dir / "coord.journal").string();
  const auto journal_path = config.journal_path;
  auto coordinator = Coordinator::start(std::move(config));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();

  auto first = (*coordinator)->submit(make_request(51, /*budget=*/5.0));
  auto second = (*coordinator)->submit(make_request(51, /*budget=*/5.0));
  ASSERT_TRUE(first && second);
  EXPECT_TRUE(second->deduplicated);
  (*coordinator)->stop();  // waiters resolve kUnavailable, records stay open

  auto recovered = service::journal::recover_jobs(journal_path);
  ASSERT_TRUE(recovered) << recovered.status().to_string();
  ASSERT_EQ(recovered->size(), 2u);
  EXPECT_EQ((*recovered)[0].dedup_primary, 0u);
  EXPECT_EQ((*recovered)[1].dedup_primary, (*recovered)[0].id);

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(Cluster, WorkerWithoutReplicaNeverAcksReplication) {
  // A node with no replica journal still solves jobs, but its
  // applied-through cursor must stay at 0: acking records it never
  // persisted would let a promotion trust an empty (nonexistent) replica.
  auto w1 = start_worker(/*replica=*/"");
  ASSERT_TRUE(w1);
  auto coordinator = Coordinator::start(fast_config({w1->port()}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 1);

  auto handle = (*coordinator)->submit(make_request(41, /*budget=*/0.1));
  ASSERT_TRUE(handle) << handle.status().to_string();
  EXPECT_TRUE(handle->result.get().status.ok());
  EXPECT_EQ(w1->last_applied_seq(), 0u);
}

TEST(Cluster, RejoinedWorkerCatchesUpAndTakesPendingWork) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pts_cluster_rejoin_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  auto w1 = start_worker((dir / "w1.replica").string());
  ASSERT_TRUE(w1);
  const auto port = w1->port();
  auto coordinator = Coordinator::start(fast_config({port}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 1);

  auto handle = (*coordinator)->submit(make_request(31, /*budget=*/0.3));
  ASSERT_TRUE(handle) << handle.status().to_string();

  // The only node dies; the job returns to pending with nowhere to go.
  w1->stop();
  w1.reset();

  // A replacement joins on the SAME address with a fresh replica (cursor
  // 0). The coordinator must re-handshake, resend the live image and
  // dispatch the stranded job to it.
  auto w2 = start_worker((dir / "w2.replica").string(), port);
  ASSERT_TRUE(w2);

  auto result = handle->result.get();
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_GE(w2->last_applied_seq(), 1u);
  EXPECT_GE((*coordinator)->stats().nodes_connected, 2u);

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(Cluster, CoordinatorRefusesAnEmptyRoster) {
  CoordinatorConfig config;
  auto coordinator = Coordinator::start(std::move(config));
  ASSERT_FALSE(coordinator);
  EXPECT_EQ(coordinator.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pts::cluster
