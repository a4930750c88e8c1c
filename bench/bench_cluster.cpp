// Cluster failover-latency bench (experiment index: cluster). Stands up a
// real coordinator + worker-node mesh on loopback and measures the
// latencies DESIGN.md §11 puts bounds on, writing them to
// BENCH_cluster.json (override with --json=PATH):
//
//   dispatch_ms   submit -> resolved for a tiny job through the full stack
//                 (coordinator sharding + TCP round trips) — the
//                 steady-state overhead a cluster adds over a bare
//                 SolverService. The job carries a target its first
//                 incumbent beats, so it stops at its first round boundary
//                 and the figure is the hops, not the job's budget
//   client_rtt_ms the same jobs submitted by a net::Client through a
//                 net::Server fronting the coordinator: one more TCP hop,
//                 the path pts_client takes to pts_cluster
//   failover_ms   node death -> the stranded job is re-dispatched to a
//                 survivor. Bounded by heartbeat detection (interval x
//                 misses) + jittered resubmit backoff + one tick; the gate
//                 asserts the p95 stays under 10x that analytic budget so a
//                 regression in detection or redispatch shows up as a test
//                 failure, not an ops surprise. Each round kills the node
//                 actually running the job and boots a replacement on the
//                 same port for the next round (rejoin catch-up included).
//
// `--quick` shrinks the round counts for the ctest smoke (label: cluster).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bounds/greedy.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/worker_node.hpp"
#include "mkp/generator.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "util/rng.hpp"

namespace {

using namespace pts;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kSeed = 20260809;

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::unique_ptr<cluster::WorkerNode> start_worker(std::uint16_t port = 0) {
  cluster::WorkerNodeConfig config;
  config.service.num_workers = 2;
  config.server.port = port;
  auto node = cluster::WorkerNode::start(std::move(config));
  if (!node) {
    std::fprintf(stderr, "worker start failed: %s\n",
                 node.status().to_string().c_str());
    return nullptr;
  }
  return std::move(*node);
}

service::SubmitRequest make_request(std::uint64_t seed, double budget) {
  service::SubmitRequest request;
  request.instance = std::make_shared<const mkp::Instance>(
      mkp::generate_gk({.num_items = 40, .num_constraints = 5}, seed));
  request.options.preset = "quick";
  request.options.time_budget_seconds = budget;
  request.options.seed = seed;
  return request;
}

/// A dispatch-round job: the target is half a greedy solution's value, so
/// the first incumbent beats it and the 50 ms budget never runs out.
service::SubmitRequest make_hop_request(std::uint64_t seed) {
  auto request = make_request(seed, 0.05);
  Rng rng(1);
  request.options.target_value =
      bounds::greedy_randomized(*request.instance, rng).value() * 0.5;
  return request;
}

/// The dispatch-round jobs again, submitted by a net::Client through a
/// net::Server that fronts `gateway`. Stops at the first failure, so a
/// short vector means a failed round.
std::vector<double> client_round_trips(net::JobGateway& gateway,
                                       std::size_t rounds) {
  std::vector<double> rtt_ms;
  auto server = net::Server::start(gateway, net::ServerConfig{});
  if (!server) {
    std::fprintf(stderr, "server start failed: %s\n",
                 server.status().to_string().c_str());
    return rtt_ms;
  }
  auto client = net::Client::connect("127.0.0.1", (*server)->port());
  if (!client) {
    std::fprintf(stderr, "client connect failed: %s\n",
                 client.status().to_string().c_str());
    return rtt_ms;
  }
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto start = Clock::now();
    auto job = client->submit(make_hop_request(kSeed + round));
    if (!job) {
      std::fprintf(stderr, "client submit failed: %s\n",
                   job.status().to_string().c_str());
      break;
    }
    auto result = client->wait(*job, /*timeout_seconds=*/30.0);
    const Status status = result ? result->status : result.status();
    if (!status.ok()) {
      std::fprintf(stderr, "client job failed: %s\n",
                   status.to_string().c_str());
      break;
    }
    rtt_ms.push_back(ms_since(start));
  }
  return rtt_ms;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pts;
  bool quick = false;
  std::string json_path = "BENCH_cluster.json";
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[a], "--json=", 7) == 0) {
      json_path = argv[a] + 7;
    }
  }
  const std::size_t dispatch_rounds = quick ? 6 : 20;
  const std::size_t failover_rounds = quick ? 3 : 8;

  auto w1 = start_worker();
  auto w2 = start_worker();
  if (!w1 || !w2) return 1;

  cluster::CoordinatorConfig config;
  config.peers = {{"127.0.0.1", w1->port()}, {"127.0.0.1", w2->port()}};
  config.heartbeat_interval_seconds = 0.05;
  config.heartbeat_misses = 4;
  config.resubmit_backoff_seconds = 0.02;
  // The analytic failover budget: full heartbeat silence + max first-try
  // backoff + a dispatch tick. The p95 gate sits at 10x this to absorb CI
  // scheduling noise without hiding an order-of-magnitude regression.
  const double analytic_budget_ms =
      (config.heartbeat_interval_seconds * config.heartbeat_misses +
       config.resubmit_backoff_seconds + 0.02) *
      1000.0;
  auto started = cluster::Coordinator::start(config);
  if (!started) {
    std::fprintf(stderr, "coordinator start failed: %s\n",
                 started.status().to_string().c_str());
    return 1;
  }
  auto& coordinator = **started;
  while (coordinator.alive_peers() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  bool ok = true;

  // -- Steady-state dispatch overhead. -------------------------------------
  std::vector<double> dispatch_ms;
  for (std::size_t round = 0; round < dispatch_rounds; ++round) {
    const auto start = Clock::now();
    auto handle = coordinator.submit(make_hop_request(kSeed + round));
    if (!handle) {
      std::fprintf(stderr, "submit failed: %s\n",
                   handle.status().to_string().c_str());
      ok = false;
      break;
    }
    auto result = handle->result.get();
    if (!result.status.ok()) {
      std::fprintf(stderr, "job failed: %s\n", result.status.to_string().c_str());
      ok = false;
      break;
    }
    dispatch_ms.push_back(ms_since(start));
  }
  std::printf("dispatch: %zu jobs, p50 %.2f ms, p95 %.2f ms\n",
              dispatch_ms.size(), percentile(dispatch_ms, 0.50),
              percentile(dispatch_ms, 0.95));

  // -- The same jobs from a client: Client -> Server -> coordinator. -------
  std::vector<double> client_rtt_ms;
  if (ok) client_rtt_ms = client_round_trips(coordinator, dispatch_rounds);
  if (client_rtt_ms.size() < dispatch_rounds) ok = false;
  std::printf("client rtt: %zu jobs, p50 %.2f ms, p95 %.2f ms\n",
              client_rtt_ms.size(), percentile(client_rtt_ms, 0.50),
              percentile(client_rtt_ms, 0.95));

  // -- Failover latency: node death -> redispatch on a survivor. -----------
  // Each round needs to know which node runs ITS job, and the only outside
  // signal is running_jobs(): both nodes must be fully idle before the
  // round's submit, or the previous round's still-cancelling job points the
  // victim search at the wrong node.
  const auto wait_until_idle = [&]() -> bool {
    const auto idle_deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < idle_deadline) {
      if (w1->service().running_jobs() == 0 &&
          w1->service().queued_jobs() == 0 &&
          w2->service().running_jobs() == 0 &&
          w2->service().queued_jobs() == 0) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  };
  std::vector<double> failover_ms;
  for (std::size_t round = 0; round < failover_rounds && ok; ++round) {
    if (!wait_until_idle()) {
      std::fprintf(stderr, "round %zu: nodes never went idle\n", round);
      ok = false;
      break;
    }
    auto handle = coordinator.submit(make_request(1000 + round, 10.0));
    if (!handle) {
      ok = false;
      break;
    }
    // Find the node running the job; that one dies.
    cluster::WorkerNode* victim = nullptr;
    const auto find_deadline = Clock::now() + std::chrono::seconds(30);
    while (!victim && Clock::now() < find_deadline) {
      if (w1->service().running_jobs() > 0) victim = w1.get();
      else if (w2->service().running_jobs() > 0) victim = w2.get();
      else std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!victim) {
      std::fprintf(stderr, "round %zu: job never started\n", round);
      ok = false;
      break;
    }
    const auto dispatched_before = coordinator.stats().dispatched;
    const auto victim_port = victim->port();
    // The clock starts before stop(): the coordinator may notice the closed
    // links and redispatch while stop() is still tearing the node down.
    const auto death = Clock::now();
    victim->stop();

    // Redispatch (not resolution) is the failover metric: the re-solve
    // itself costs the job's own budget, which is not the cluster's doing.
    const auto redispatch_deadline = Clock::now() + std::chrono::seconds(30);
    while (coordinator.stats().dispatched == dispatched_before &&
           Clock::now() < redispatch_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (coordinator.stats().dispatched == dispatched_before) {
      std::fprintf(stderr, "round %zu: job was never re-dispatched\n", round);
      ok = false;
      break;
    }
    failover_ms.push_back(ms_since(death));
    if (!coordinator.cancel(handle->id)) {
      std::fprintf(stderr, "round %zu: cancel refused\n", round);
      ok = false;
    }
    (void)handle->result.get();  // resolves (cancelled); never hangs

    // A replacement joins on the dead node's port for the next round.
    auto replacement = start_worker(victim_port);
    if (!replacement) {
      ok = false;
      break;
    }
    if (victim == w1.get()) w1 = std::move(replacement);
    else w2 = std::move(replacement);
  }
  const double failover_p50 = percentile(failover_ms, 0.50);
  const double failover_p95 = percentile(failover_ms, 0.95);
  std::printf("failover: %zu rounds, p50 %.1f ms, p95 %.1f ms "
              "(analytic budget %.0f ms, gate %.0f ms)\n",
              failover_ms.size(), failover_p50, failover_p95,
              analytic_budget_ms, 10.0 * analytic_budget_ms);
  if (failover_ms.size() < failover_rounds) ok = false;
  if (failover_p95 > 10.0 * analytic_budget_ms) {
    std::fprintf(stderr,
                 "FAIL: failover p95 %.1f ms exceeds the %.0f ms gate\n",
                 failover_p95, 10.0 * analytic_budget_ms);
    ok = false;
  }

  const auto stats = coordinator.stats();
  std::printf("coordinator: %llu submitted, %llu dispatched, %llu failovers, "
              "%llu exhausted\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.dispatched),
              static_cast<unsigned long long>(stats.failovers),
              static_cast<unsigned long long>(stats.exhausted));
  if (stats.exhausted != 0) ok = false;
  // Every round must have produced exactly one real failover — fewer means
  // the victim search stopped the wrong node and the latencies are noise.
  if (ok && stats.failovers != failover_rounds) {
    std::fprintf(stderr, "FAIL: expected %zu failovers, measured %llu\n",
                 failover_rounds,
                 static_cast<unsigned long long>(stats.failovers));
    ok = false;
  }

  char buffer[256];
  std::string json = "{\n";
  std::snprintf(buffer, sizeof buffer,
                "  \"dispatch_rounds\": %zu,\n"
                "  \"dispatch_p50_ms\": %.3f,\n"
                "  \"dispatch_p95_ms\": %.3f,\n",
                dispatch_ms.size(), percentile(dispatch_ms, 0.50),
                percentile(dispatch_ms, 0.95));
  json += buffer;
  std::snprintf(buffer, sizeof buffer,
                "  \"client_rtt_rounds\": %zu,\n"
                "  \"client_rtt_p50_ms\": %.3f,\n"
                "  \"client_rtt_p95_ms\": %.3f,\n",
                client_rtt_ms.size(), percentile(client_rtt_ms, 0.50),
                percentile(client_rtt_ms, 0.95));
  json += buffer;
  std::snprintf(buffer, sizeof buffer,
                "  \"failover_rounds\": %zu,\n"
                "  \"failover_p50_ms\": %.3f,\n"
                "  \"failover_p95_ms\": %.3f,\n"
                "  \"failover_gate_ms\": %.1f,\n",
                failover_ms.size(), failover_p50, failover_p95,
                10.0 * analytic_budget_ms);
  json += buffer;
  json += std::string("  \"ok\": ") + (ok ? "true" : "false") + "\n}\n";
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    ok = false;
  }

  (*started)->stop();
  return ok ? 0 : 1;
}
