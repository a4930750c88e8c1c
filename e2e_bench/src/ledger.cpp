// Per-layer probes shared by every traced run.
//
//   tabu     AddScan sweeps and MoveKernel::apply timed at the states of a
//            replayed slave round; a single-thread tabu_search baseline.
//   doors    a sample of stream-shaped jobs run serially through four nested
//            front doors (in-process, SolverService, net::Server over a
//            service, the cluster); each layer's overhead is its door's
//            latency minus the latency of the door inside it, per job.
//   backends one cooperation-heavy job (rounds of a few moves) on the proc
//            backend and on threads: the proc transport's share of a round,
//            and the check that both backends return the same result.

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bench.hpp"
#include "service/solver_service.hpp"
#include "stats.hpp"
#include "tabu/engine.hpp"
#include "tabu/kernels.hpp"
#include "tabu/moves.hpp"
#include "tabu/tabu_list.hpp"
#include "util/rng.hpp"

namespace e2e {

using namespace pts;

namespace {

constexpr std::size_t kDoorJobs = 12;
constexpr std::size_t kReplayMoves = 200;
constexpr int kDoorLane = 100;
constexpr int kProbeLane = 101;

// Written once per replay, so the timed sweeps cannot be optimized away.
volatile double score_sink = 0.0;

struct DoorSamples {
  std::vector<double> inproc, service, net, cluster;  // seconds
  std::vector<double> queue_s, run_s, ack_s;
  std::uint64_t dispatches = 0, replicated = 0;
};

/// Runs every job through the four doors twice; the first pass warms up
/// and is not sampled.
DoorSamples door_split(const std::vector<StreamJob>& jobs,
                       bool feed_parallel, Verifier& verifier, SpanRecorder& spans,
                       ParallelLedger& parallel, std::unique_ptr<InprocRun>& first_run) {
  DoorSamples out;
  service::ServiceConfig service_config;
  service_config.num_workers = kNodeWorkers;
  service::SolverService door2(service_config);
  service::SolverService door3_service(service_config);
  auto door3_server = net::Server::start(door3_service, net::ServerConfig{});
  auto door4 = start_cluster(1);
  if (!door3_server || !door4) {
    verifier.count_missing("door rig start failed");
    return out;
  }
  auto door3 = net::Client::connect("127.0.0.1", (*door3_server)->port());
  if (!door3) {
    verifier.count_missing("door 3 connect: " + door3.status().to_string());
    return out;
  }
  auto& cluster_client = (*door4)->clients[0];
  std::uint64_t span_job = 1'000'000;

  for (int pass = 0; pass < 2; ++pass) {
    const bool sampled = pass == 1;
    const auto before = (*door4)->coordinator->stats();
    for (const auto& job : jobs) {
      const auto id = span_job++;
      const auto root = spans.open("doors.job", -1, id, kDoorLane);

      const auto door1 = spans.open("door.inproc", root, id, kDoorLane);
      auto run = run_inproc(*job.instance, job.inproc_config(), true);
      spans.close(door1);
      verifier.record(job.gate(), run->result->status, run->result->best, run->result->best_value,
                      run->result->total_moves);

      const auto service_span = spans.open("door.service", root, id, kDoorLane);
      const auto t0 = Clock::now();
      auto handle = door2.submit(job.request());
      service::JobResult result;
      if (handle) result = handle->result.get();
      const double service_s = seconds_between(t0, Clock::now());
      spans.close(service_span);
      verifier.record(job.gate(), handle ? result.status : handle.status(), result.best,
                      result.best_value, result.total_moves);

      const auto net_span = spans.open("door.net", root, id, kDoorLane);
      const auto net_run = run_remote(*door3, job);
      spans.close(net_span);
      verifier.record(job.gate(), net_run.status, net_run.result.best,
                      net_run.result.best_value, net_run.result.total_moves);

      const auto cluster_span = spans.open("door.cluster", root, id, kDoorLane);
      const auto cluster_run = run_remote(cluster_client, job);
      spans.close(cluster_span);
      spans.close(root);
      verifier.record(job.gate(), cluster_run.status, cluster_run.result.best,
                      cluster_run.result.best_value, cluster_run.result.total_moves);

      if (!sampled) continue;
      out.inproc.push_back(run->latency_s());
      out.service.push_back(service_s);
      out.net.push_back(net_run.latency_s());
      out.cluster.push_back(cluster_run.latency_s());
      out.queue_s.push_back(result.queue_seconds);
      out.run_s.push_back(result.run_seconds);
      out.ack_s.push_back(net_run.ack_s());
      if (feed_parallel) parallel.add(*run, spans, door1, id, kDoorLane);
      if (!first_run) first_run = std::move(run);
    }
    const auto after = (*door4)->coordinator->stats();
    out.dispatches = after.dispatched - before.dispatched;
    out.replicated = after.records_replicated - before.records_replicated;
  }
  return out;
}

std::vector<double> paired_difference_ms(const std::vector<double>& outer,
                                         const std::vector<double>& inner) {
  std::vector<double> out;
  for (std::size_t k = 0; k < std::min(outer.size(), inner.size()); ++k) {
    out.push_back(1000.0 * (outer[k] - inner[k]));
  }
  return out;
}

/// Replays a slave round's moves from the run's best solution, timing one
/// full Add sweep (every unselected column) before each move and the move
/// itself.
void tabu_replay(const mkp::Instance& inst, const InprocRun& sample, std::uint64_t seed,
                 Metrics& out) {
  const auto strategy = sample.result->master.timeline.empty()
                            ? tabu::Strategy{}
                            : sample.result->master.timeline.front().strategy;
  mkp::Solution x(inst);
  for (std::size_t j = 0; j < inst.num_items(); ++j) {
    if (sample.result->best.contains(j)) x.add(j);
  }
  tabu::MoveKernel kernel(inst);
  tabu::TabuList tabu_list(inst.num_items());
  tabu::MoveStats stats;
  Rng rng(seed);
  double best = x.value();
  std::vector<double> sweep_ns, move_us;
  double score_sum = 0.0;
  std::vector<std::size_t> columns;
  for (std::size_t k = 0; k < kReplayMoves; ++k) {
    columns.clear();
    for (std::size_t j = 0; j < inst.num_items(); ++j) {
      if (!x.contains(j)) columns.push_back(j);
    }
    if (!columns.empty()) {
      const tabu::kernels::AddScan scan(x);
      const std::size_t reps = std::max<std::size_t>(1, 20'000 / columns.size());
      const auto t0 = Clock::now();
      for (std::size_t r = 0; r < reps; ++r) {
        for (const auto j : columns) {
          const auto fit = scan(j);
          score_sum += fit.fit ? fit.score : 0.0;
        }
      }
      sweep_ns.push_back(1e9 * seconds_between(t0, Clock::now()) /
                         static_cast<double>(reps * columns.size()));
    }
    const auto t0 = Clock::now();
    kernel.apply(x, tabu_list, k + 1, strategy, strategy.tabu_tenure, best, rng, stats);
    move_us.push_back(1e6 * seconds_between(t0, Clock::now()));
    if (x.is_feasible()) best = std::max(best, x.value());
  }
  score_sink = score_sum;
  out.set("tabu.sweep_ns", median(sweep_ns), "ns");
  out.set("tabu.move_us", median(move_us), "us");
}

/// Single-thread tabu_search on the workload instance, three short runs.
void engine_baseline(const mkp::Instance& inst, const parallel::ParallelConfig& config,
                     const InprocRun& sample, const Rows& rows, double bound,
                     std::uint64_t seed, Verifier& verifier, Metrics& out) {
  auto params = config.base_params;
  if (!sample.result->master.timeline.empty()) {
    params.strategy = sample.result->master.timeline.front().strategy;
  }
  params.max_moves = 1'000'000'000;
  params.time_limit_seconds = 0.25;
  std::vector<double> rates;
  for (int k = 0; k < 3; ++k) {
    Rng rng(derive_seed(seed, 300 + static_cast<std::uint64_t>(k)));
    const auto result = tabu::tabu_search_from_scratch(inst, params, rng);
    rates.push_back(static_cast<double>(result.moves) / result.seconds);
    verifier.record({"engine#" + std::to_string(k), &rows, bound, std::nullopt}, Status{},
                    result.best, result.best_value, result.moves);
  }
  out.set("tabu.engine_moves_per_s", median(rates), "1/s");
}

/// The proc-transport probe and the ROADMAP invariant that a fault-free
/// proc run equals the thread run: one cooperation-heavy job drawn from the
/// seed, three times on each backend. Every repeat must return the same
/// best solution and move count.
void backend_probe(std::uint64_t seed, Verifier& verifier, SpanRecorder& spans, Metrics& out) {
  const Rows rows = gk_rows(10, 100, derive_seed(seed, 1));
  const auto inst = build_instance(rows, "coop");
  const Verifier::Job gate{"coop-proc-vs-thread", &rows, lp_bound(inst), std::nullopt};
  ParallelLedger proc_ledger("parallel.proc_");
  std::vector<double> proc_s, thread_s;
  std::optional<mkp::Solution> first_best;
  for (std::uint64_t k = 0; k < 3; ++k) {
    for (const bool proc : {true, false}) {
      auto config = coop_config(derive_seed(seed, 2));
      if (!proc) config.backend = parallel::Backend::kThread;
      const std::uint64_t id = 2'000'000 + 2 * k + (proc ? 1 : 0);
      const auto span = spans.open(proc ? "coop.proc" : "coop.thread", -1, id, kProbeLane);
      const auto run = run_inproc(inst, config, proc);
      spans.close(span);
      const auto& result = *run->result;
      verifier.record(gate, result.status, result.best, result.best_value, result.total_moves);
      if (!first_best) {
        first_best.emplace(result.best);
      } else if (!(*first_best == result.best)) {
        verifier.wrong("proc and thread runs of one job returned different best solutions");
      }
      (proc ? proc_s : thread_s).push_back(run->latency_s());
      if (proc) proc_ledger.add(*run, spans, span, id, kProbeLane);
    }
  }
  proc_ledger.report(out);
  out.set("parallel.proc_overhead_ms", 1000.0 * (median(proc_s) - median(thread_s)), "ms");
  std::printf("backends: coop job proc %.1f ms, thread %.1f ms (median of %zu each)\n",
              1000.0 * median(proc_s), 1000.0 * median(thread_s), proc_s.size());
}

}  // namespace

void run_common_ledger(const Options& options, const LedgerInputs& inputs, Verifier& verifier,
                       SpanRecorder& spans, ParallelLedger& parallel, Metrics& out) {
  auto jobs = prepare_stream_jobs(options.seed, kDoorJobs);
  build_stream_instances(jobs);
  std::unique_ptr<InprocRun> door_run;
  const auto doors = door_split(jobs, inputs.stream, verifier, spans, parallel, door_run);
  if (doors.inproc.empty()) return;
  const auto door_ms = [](const std::vector<double>& s) { return 1000.0 * median(s); };
  std::printf("doors (median of %zu jobs): inproc %.3f ms, service %.3f ms, net %.3f ms, "
              "cluster %.3f ms\n",
              doors.inproc.size(), door_ms(doors.inproc), door_ms(doors.service),
              door_ms(doors.net), door_ms(doors.cluster));
  const auto overhead_ms = [](const std::vector<double>& outer, const std::vector<double>& inner) {
    return median(paired_difference_ms(outer, inner));
  };
  out.set("service.overhead_ms", overhead_ms(doors.service, doors.inproc), "ms");
  out.set("net.overhead_ms", overhead_ms(doors.net, doors.service), "ms");
  out.set("cluster.overhead_ms", overhead_ms(doors.cluster, doors.net), "ms");
  if (!inputs.stream) {
    const double n = static_cast<double>(doors.inproc.size());
    out.set("service.queue_ms", 1000.0 * median(doors.queue_s), "ms");
    out.set("service.run_ms", 1000.0 * median(doors.run_s), "ms");
    out.set("net.ack_ms", 1000.0 * median(doors.ack_s), "ms");
    out.set("cluster.dispatches_per_job", static_cast<double>(doors.dispatches) / n, "ratio");
    out.set("cluster.replicated_per_job", static_cast<double>(doors.replicated) / n, "ratio");
  }
  parallel.report(out);
  parallel.report_counters(out);

  // The stream's own instances are the door jobs; the solve brings its own.
  const auto stream_config = jobs[0].inproc_config();
  const mkp::Instance& inst = inputs.stream ? *jobs[0].instance : *inputs.instance;
  const auto& config = inputs.stream ? stream_config : *inputs.config;
  const InprocRun& sample = inputs.stream ? *door_run : *inputs.sample;
  const Rows& rows = inputs.stream ? jobs[0].rows : *inputs.rows;
  const double bound = inputs.stream ? jobs[0].lp_bound : inputs.lp_bound;

  const auto replay = spans.open("tabu.replay", -1, 0, kProbeLane);
  tabu_replay(inst, sample, derive_seed(options.seed, 200), out);
  spans.close(replay);
  const auto engine = spans.open("tabu.engine", -1, 0, kProbeLane);
  engine_baseline(inst, config, sample, rows, bound, options.seed, verifier, out);
  spans.close(engine);
  backend_probe(options.seed, verifier, spans, out);

  const auto all = spans.spans();
  for (const auto& [name, summary] : summarize(all)) {
    std::printf("span %-24s n=%-5zu median %12.1f us  self %12.1f us\n", name.c_str(),
                summary.count, summary.median_us, summary.median_self_us);
  }
  if (!options.trace_out.empty()) {
    std::ofstream file(options.trace_out);
    file << chrome_trace_json(all);
    file.close();
    if (!file) verifier.wrong("cannot write the trace to " + options.trace_out);
    std::printf("trace: %zu spans written to %s\n", all.size(), options.trace_out.c_str());
  }
}

}  // namespace e2e
