// Nagle regression tests (DESIGN.md §10): every TCP link this code base
// makes runs with TCP_NODELAY, on the dialling end and on the accepting end.
// A result reply is two frames (the JobEvent chunk, then the JobResult);
// with Nagle on, the second one waits for the peer's delayed ACK of the
// first, which puts ~40 ms on every job's round trip. The option is checked
// directly on both ends, and by its effect: a run of small sequential jobs
// on one connection.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "bounds/greedy.hpp"
#include "mkp/generator.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/solver_service.hpp"
#include "util/rng.hpp"

namespace pts::net {
namespace {

int no_delay(int fd) {
  int value = -1;
  socklen_t length = sizeof(value);
  if (::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &length) != 0) {
    return -1;
  }
  return value;
}

/// A bare loopback listener on an ephemeral port, closed on scope exit.
struct Listener {
  int fd = -1;
  std::uint16_t port = 0;

  Listener() {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t length = sizeof(addr);
    if (fd < 0 ||
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 4) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &length) != 0) {
      return;
    }
    port = ntohs(addr.sin_port);
  }
  ~Listener() {
    if (fd >= 0) ::close(fd);
  }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
};

TEST(NetNoDelay, DialedSocketHasNagleOff) {
  Listener listener;
  ASSERT_NE(listener.port, 0);
  auto socket = dial("127.0.0.1", listener.port, 5.0);
  ASSERT_TRUE(socket) << socket.status().to_string();
  EXPECT_EQ(no_delay(socket->fd()), 1);
}

TEST(NetNoDelay, AcceptedSocketHasNagleOff) {
  Listener listener;
  ASSERT_NE(listener.port, 0);
  auto socket = dial("127.0.0.1", listener.port, 5.0);
  ASSERT_TRUE(socket) << socket.status().to_string();
  const int accepted = accept_connection(listener.fd);
  ASSERT_GE(accepted, 0);
  EXPECT_EQ(no_delay(accepted), 1);
  ::close(accepted);
}

TEST(NetNoDelay, SequentialJobsOnOneConnectionDoNotWaitForDelayedAck) {
  // Target-stopped jobs on GK 30x4 finish in well under a millisecond, so
  // the round trip is the hop. With Nagle on either end it is ~40 ms.
  service::ServiceConfig pool;
  pool.num_workers = 2;
  service::SolverService service(pool);
  auto server = Server::start(service, ServerConfig{});
  ASSERT_TRUE(server) << server.status().to_string();
  auto client = Client::connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client) << client.status().to_string();

  auto instance = std::make_shared<const mkp::Instance>(
      mkp::generate_gk({.num_items = 30, .num_constraints = 4}, 1));
  Rng rng(1);
  // The same easy target as test_server.cpp: the first incumbent beats it.
  const double target =
      bounds::greedy_randomized(*instance, rng).value() * 0.5;

  constexpr int kJobs = 30;
  std::vector<double> round_trip_ms;
  for (int i = 0; i < kJobs; ++i) {
    service::SubmitRequest request;
    request.instance = instance;
    request.tenant = "prod";
    request.options.preset = "quick";
    request.options.time_budget_seconds = 8.0;
    request.options.seed = 7 + static_cast<std::uint64_t>(i);
    request.options.target_value = target;
    const auto start = std::chrono::steady_clock::now();
    auto job = client->submit(request);
    ASSERT_TRUE(job) << job.status().to_string();
    auto result = client->wait(*job, /*timeout_seconds=*/30.0);
    ASSERT_TRUE(result) << result.status().to_string();
    ASSERT_TRUE(result->status.ok()) << result->status.to_string();
    round_trip_ms.push_back(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count());
  }
  std::sort(round_trip_ms.begin(), round_trip_ms.end());
  const double median = round_trip_ms[kJobs / 2];
  EXPECT_LT(median, 10.0) << "median round trip " << median << " ms over "
                          << kJobs << " jobs";
  client->close();
  (*server)->stop();
  service.shutdown();
}

}  // namespace
}  // namespace pts::net
