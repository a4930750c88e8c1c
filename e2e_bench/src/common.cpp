#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "bench.hpp"
#include "bounds/simplex.hpp"
#include "parallel/presets.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace e2e {

using namespace pts;

std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream) {
  std::uint64_t state = workload_seed * 0x9e3779b97f4a7c15ull + stream;
  return splitmix64(state);
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  if (!values_.count(name)) order_.push_back(name);
  values_[name] = {value, unit};
}

// -- In-process runs and the master ledger ------------------------------------

void RoundClock::on_round_start(std::size_t) { start.push_back(Clock::now()); }
void RoundClock::on_assignments_sent(std::size_t, std::size_t) { sent.push_back(Clock::now()); }
void RoundClock::on_reports_gathered(std::size_t, std::size_t) {
  gathered.push_back(Clock::now());
}

std::unique_ptr<InprocRun> run_inproc(const mkp::Instance& inst,
                                      parallel::ParallelConfig config, bool observe) {
  auto run = std::make_unique<InprocRun>();
  if (observe) config.observer = &run->rounds;
  run->called = Clock::now();
  auto result = parallel::run_parallel_tabu_search(inst, config);
  run->returned = Clock::now();
  run->result = std::move(result);
  return run;
}

namespace {

double ms(Clock::time_point from, Clock::time_point to) {
  return 1000.0 * seconds_between(from, to);
}

}  // namespace

void ParallelLedger::add(const InprocRun& run, SpanRecorder& spans, std::int64_t parent,
                         std::uint64_t job, int lane) {
  const auto& r = run.rounds;
  const std::size_t rounds = std::min({r.start.size(), r.sent.size(), r.gathered.size()});
  if (rounds == 0) return;
  const auto& master = run.result->master;
  const double wall_ms = ms(run.called, run.returned);

  // Slowest slave of each round, from the master's audit log.
  std::vector<double> slowest(rounds, 0.0);
  double busy_ms = 0.0;
  std::size_t slaves = 1;
  std::vector<double> slave_ms;
  for (const auto& line : master.timeline) {
    slaves = std::max(slaves, line.slave + 1);
    const double line_ms = 1000.0 * line.seconds;
    slave_ms.push_back(line_ms);
    busy_ms += line_ms;
    if (line.round < rounds) slowest[line.round] = std::max(slowest[line.round], line_ms);
  }
  std::vector<double> scatter, gather, master_gap, transport;
  double accounted = ms(run.called, r.start[0]);
  for (std::size_t k = 0; k < rounds; ++k) {
    scatter.push_back(ms(r.start[k], r.sent[k]));
    gather.push_back(ms(r.sent[k], r.gathered[k]));
    transport.push_back(gather.back() - slowest[k]);
    accounted += scatter.back() + gather.back();
    if (k + 1 < rounds) {
      master_gap.push_back(ms(r.gathered[k], r.start[k + 1]));
      accounted += master_gap.back();
    }
  }
  start_ms_.push_back(ms(run.called, r.start[0]));
  scatter_ms_.push_back(median(scatter));
  round_ms_.push_back(median(gather));
  if (!master_gap.empty()) master_ms_.push_back(median(master_gap));  // one-round jobs have none
  slave_round_ms_.push_back(median(slave_ms));
  transport_ms_.push_back(median(transport));
  idle_frac_.push_back(1000.0 * master.rendezvous_idle_seconds / wall_ms);
  busy_frac_.push_back(busy_ms / (static_cast<double>(slaves) * wall_ms));
  unattributed_frac_.push_back((wall_ms - accounted) / wall_ms);
  counters_.add(master.counters);

  spans.add({prefix_ + "start", spans.us_of(run.called), spans.us_of(r.start[0]), parent, job,
             lane});
  for (std::size_t k = 0; k < std::min(rounds, kMaxRoundSpans); ++k) {
    const auto end = k + 1 < rounds ? r.start[k + 1] : run.returned;
    const auto round = spans.add(
        {prefix_ + "round", spans.us_of(r.start[k]), spans.us_of(end), parent, job, lane});
    spans.add({prefix_ + "scatter", spans.us_of(r.start[k]), spans.us_of(r.sent[k]), round,
               job, lane});
    spans.add({prefix_ + "gather", spans.us_of(r.sent[k]), spans.us_of(r.gathered[k]), round,
               job, lane});
    spans.add({prefix_ + (k + 1 < rounds ? "master" : "teardown"), spans.us_of(r.gathered[k]),
               spans.us_of(end), round, job, lane});
  }
}

void ParallelLedger::report(Metrics& out) const {
  out.set(prefix_ + "start_ms", median(start_ms_), "ms");
  out.set(prefix_ + "scatter_ms", median(scatter_ms_), "ms");
  out.set(prefix_ + "round_ms", median(round_ms_), "ms");
  out.set(prefix_ + "master_ms", median(master_ms_), "ms");
  out.set(prefix_ + "slave_round_ms", median(slave_round_ms_), "ms");
  out.set(prefix_ + "transport_ms", median(transport_ms_), "ms");
  out.set(prefix_ + "rendezvous_idle_frac", median(idle_frac_), "ratio");
  out.set(prefix_ + "slave_busy_frac", median(busy_frac_), "ratio");
  out.set(prefix_ + "unattributed_frac", median(unattributed_frac_), "ratio");
}

void ParallelLedger::report_counters(Metrics& out) const {
  const auto adds = static_cast<double>(std::max<std::uint64_t>(1, counters_[obs::Counter::kAdds]));
  out.set("tabu.sweeps_per_add",
          static_cast<double>(counters_[obs::Counter::kFitScoreCalls]) / adds, "ratio");
  out.set("tabu.tabu_rejections_per_add",
          static_cast<double>(counters_[obs::Counter::kTabuRejections]) / adds, "ratio");
  out.set("tabu.prune_outs_per_add",
          static_cast<double>(counters_[obs::Counter::kPruneEarlyOuts]) / adds, "ratio");
}

double lp_bound(const mkp::Instance& inst) {
  const auto lp = bounds::solve_lp_relaxation(inst);
  // Only an optimal LP is a bound; otherwise fall back to the trivial one.
  return lp.status == bounds::LpStatus::kOptimal ? lp.objective : inst.total_profit();
}

// -- Stream jobs --------------------------------------------------------------

Verifier::Job StreamJob::gate() const {
  return {"stream#" + std::to_string(index), &rows, lp_bound, target};
}

service::SubmitRequest StreamJob::request() const {
  service::SubmitRequest request;
  request.instance = instance;
  request.options.preset = "quick";
  request.options.seed = seed;
  request.options.target_value = target;
  request.options.time_budget_seconds = kStreamBudgetSeconds;
  return request;
}

namespace {

// The quick preset as the service shapes it for a pool of kNodeWorkers.
parallel::ParallelConfig quick_config(const mkp::Instance& inst, std::uint64_t seed) {
  auto config = parallel::preset_quick(seed);
  parallel::scale_budget_to_instance(config, inst);
  config.num_slaves = std::clamp<std::size_t>(config.num_slaves, 1, kNodeWorkers);
  return config;
}

}  // namespace

parallel::ParallelConfig StreamJob::inproc_config() const {
  auto config = quick_config(*instance, seed);
  config.target_value = target;
  config.search_iterations = std::max<std::size_t>(config.search_iterations, 1'000'000);
  config.time_limit_seconds = kStreamBudgetSeconds;
  return config;
}

std::vector<StreamJob> prepare_stream_jobs(std::uint64_t workload_seed, std::size_t count) {
  std::vector<StreamJob> jobs(count);
  const auto prepare = [&](std::size_t i) {
    auto& job = jobs[i];
    job.index = i;
    job.rows = gk_rows(10, 100, derive_seed(workload_seed, 1000 + i));
    job.seed = derive_seed(workload_seed, 5000 + i);
    const auto inst = build_instance(job.rows, "calibration");
    job.lp_bound = lp_bound(inst);
    // Target: what the same configuration reaches in-process in the preset's
    // own number of rounds. Fixed work, so concurrent calibration is exact.
    job.target = parallel::run_parallel_tabu_search(inst, quick_config(inst, job.seed)).best_value;
  };
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < count; i = next++) prepare(i);
    });
  }
  for (auto& worker : workers) worker.join();
  return jobs;
}

void build_stream_instances(std::vector<StreamJob>& jobs) {
  for (auto& job : jobs) {
    job.instance = std::make_shared<const mkp::Instance>(
        build_instance(job.rows, "stream-" + std::to_string(job.index)));
  }
}

// -- Loopback cluster ---------------------------------------------------------

Expected<std::unique_ptr<ClusterRig>> start_cluster(std::size_t num_clients) {
  auto rig = std::make_unique<ClusterRig>();
  cluster::CoordinatorConfig coordinator;
  for (int k = 0; k < 2; ++k) {
    cluster::WorkerNodeConfig config;
    config.node_name = "node" + std::to_string(k);
    config.service.num_workers = kNodeWorkers;
    auto node = cluster::WorkerNode::start(std::move(config));
    if (!node) return node.status();
    coordinator.peers.push_back({"127.0.0.1", (*node)->port()});
    rig->nodes.push_back(std::move(*node));
  }
  auto started = cluster::Coordinator::start(coordinator);
  if (!started) return started.status();
  rig->coordinator = std::move(*started);
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (rig->coordinator->alive_peers() < 2) {
    if (Clock::now() > deadline) return Status::unavailable("worker nodes never joined");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  auto server = net::Server::start(*rig->coordinator, net::ServerConfig{});
  if (!server) return server.status();
  rig->server = std::move(*server);
  for (std::size_t c = 0; c < num_clients; ++c) {
    auto client = net::Client::connect("127.0.0.1", rig->server->port());
    if (!client) return client.status();
    rig->clients.push_back(std::move(*client));
  }
  return rig;
}

RemoteRun run_remote(net::Client& client, const StreamJob& job) {
  RemoteRun run;
  const auto request = job.request();
  run.started = Clock::now();
  auto ack = client.submit(request);
  run.acked = run.finished = Clock::now();
  if (!ack) {
    run.status = ack.status();
    return run;
  }
  auto result = client.wait(*ack, 4 * kStreamBudgetSeconds);
  run.finished = Clock::now();
  if (!result) {
    run.status = result.status();
    return run;
  }
  run.result = std::move(*result);
  run.status = run.result.status;
  return run;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

}  // namespace e2e
