#include "cluster/coordinator.hpp"

#include "cluster/remote_executor.hpp"

namespace pts::cluster {

Expected<std::unique_ptr<Coordinator>> Coordinator::start(
    CoordinatorConfig config) {
  if (config.peers.empty()) {
    return Status::invalid_argument("cluster: a coordinator needs peers");
  }
  if (config.heartbeat_interval_seconds <= 0 || config.heartbeat_misses <= 0) {
    return Status::invalid_argument("cluster: bad heartbeat configuration");
  }
  std::unique_ptr<Coordinator> c(new Coordinator());
  service::ServiceConfig service;
  service.journal_path = config.journal_path;
  c->executor_ = std::make_unique<RemoteExecutor>(std::move(config));
  c->service_ = std::make_unique<service::SolverService>(
      std::move(service), c->executor_.get(), c->executor_.get());
  return c;
}

Coordinator::~Coordinator() { stop(); }

void Coordinator::stop() {
  service_->shutdown(Status::unavailable("cluster: coordinator shutting down"));
  executor_->stop();
}

Expected<service::JobHandle> Coordinator::submit(service::SubmitRequest request) {
  return service_->submit(std::move(request));
}

bool Coordinator::cancel(service::JobId id) { return service_->cancel(id); }

std::vector<Coordinator::Recovered> Coordinator::take_recovered() {
  return service_->take_recovered();
}

std::size_t Coordinator::alive_peers() const { return executor_->alive_peers(); }

CoordinatorStats Coordinator::stats() const {
  CoordinatorStats stats = executor_->stats();
  const service::ServiceStats service = service_->stats();
  stats.submitted = service.submitted;
  stats.dedup_hits = service.dedup_hits;
  stats.resolved = service.invalid + service.rejected + service.completed +
                   service.cancelled + service.backend_failures +
                   service.deadline_expired;
  return stats;
}

}  // namespace pts::cluster
