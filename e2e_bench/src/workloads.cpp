// The two workloads. Each measures set-up, warms up with one untimed job,
// then runs jobs for the requested number of seconds. The traced run splits
// that time into an untraced half and a traced half (the difference is the
// tracing overhead) and then runs the common per-layer probes.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "parallel/presets.hpp"
#include "stats.hpp"

namespace e2e {

using namespace pts;

namespace {

constexpr std::size_t kSetupRepeats = 21;

void set_latency_metrics(Metrics& out, const std::vector<double>& latencies, double wall_s,
                         std::uint64_t moves, double setup_s) {
  out.set("setup_s", setup_s, "s");
  out.set("job_p50_s", median(latencies), "s");
  out.set("job_p90_s", percentile(latencies, 90.0), "s");
  out.set("jobs_per_s", static_cast<double>(latencies.size()) / wall_s, "1/s");
  out.set("moves_per_s", static_cast<double>(moves) / wall_s, "1/s");
  std::printf("latency: %zu jobs; p90 has %zu samples beyond it; highest percentile with "
              "%zu beyond: p%d\n",
              latencies.size(), samples_beyond(latencies.size(), 90.0), kMinBeyond,
              highest_supported_percentile(latencies.size()));
}

double overhead_pct(const std::vector<double>& traced, const std::vector<double>& untraced) {
  return 100.0 * (median(traced) / median(untraced) - 1.0);
}

}  // namespace

parallel::ParallelConfig coop_config(std::uint64_t seed) {
  auto config = parallel::preset_balanced(seed);
  config.backend = parallel::Backend::kProcess;
  config.work_per_slave_round = 20;
  config.search_iterations = 1000;
  return config;
}

void run_solve(const Options& options, Verifier& verifier, Metrics& out) {
  const Rows rows = gk_rows(25, 500, derive_seed(kFixedJobSeed, 1));
  const double bound = lp_bound(build_instance(rows, "bound"));

  // Set-up: all this workload needs before its first job is the Instance.
  // A build takes ~0.1 ms, so it is repeated before the first job and again
  // after every timed job; the median then samples the whole run rather
  // than one moment of a shared host.
  std::vector<double> setups;
  const auto measure_setup = [&] {
    for (std::size_t k = 0; k < kSetupRepeats; ++k) {
      const auto t0 = Clock::now();
      const auto built = build_instance(rows, options.workload);
      setups.push_back(seconds_between(t0, Clock::now()));
    }
  };
  measure_setup();
  const mkp::Instance inst = build_instance(rows, options.workload);
  // The balanced preset as shipped: CTS2, 4 slaves, thread backend, 12 rounds.
  auto config = parallel::preset_balanced(derive_seed(kFixedJobSeed, 2));
  parallel::scale_budget_to_instance(config, inst);
  const Verifier::Job gate{options.workload, &rows, bound, std::nullopt};

  std::vector<double> gaps;
  const auto run_job = [&](bool observe) {
    auto run = run_inproc(inst, config, observe);
    if (verifier.record(gate, run->result->status, run->result->best, run->result->best_value,
                        run->result->total_moves)) {
      gaps.push_back(100.0 * (bound - run->result->best_value) / bound);
    }
    return run;
  };

  run_job(false);  // warm-up
  if (!options.trace) {
    std::vector<double> latencies;
    std::uint64_t moves = 0;
    gaps.clear();
    const auto t0 = Clock::now();
    do {
      const auto run = run_job(false);
      latencies.push_back(run->latency_s());
      moves += run->result->total_moves;
      measure_setup();
    } while (seconds_between(t0, Clock::now()) < options.seconds);
    set_latency_metrics(out, latencies, seconds_between(t0, Clock::now()), moves,
                        median(setups));
    out.set("gap_to_lp_pct", mean(gaps), "%");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced run: untraced half, then the same jobs observed and spanned.
  SpanRecorder spans;
  ParallelLedger parallel("parallel.");
  std::vector<double> plain, traced;
  auto t0 = Clock::now();
  do {
    plain.push_back(run_job(false)->latency_s());
  } while (seconds_between(t0, Clock::now()) < options.seconds / 2);
  std::unique_ptr<InprocRun> sample;
  t0 = Clock::now();
  std::uint64_t job_id = 1;
  do {
    const auto root = spans.open(options.workload + ".job", -1, job_id, 0);
    auto run = run_job(true);
    spans.close(root);
    traced.push_back(run->latency_s());
    parallel.add(*run, spans, root, job_id, 0);
    ++job_id;
    sample = std::move(run);
  } while (seconds_between(t0, Clock::now()) < options.seconds / 2);
  out.set("obs.trace_overhead_pct", overhead_pct(traced, plain), "%");

  run_common_ledger(options, {&inst, &rows, bound, &config, sample.get(), false}, verifier,
                    spans, parallel, out);
}

void run_stream(const Options& options, Verifier& verifier, Metrics& out) {
  constexpr std::size_t kPool = 1024;
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kSetups = 15;
  auto jobs = prepare_stream_jobs(options.seed, kPool);

  // Set-up: instances, the node/coordinator/server mesh and the connected
  // clients, several times; the last rig stays up.
  std::vector<double> setups;
  std::unique_ptr<ClusterRig> rig;
  for (std::size_t k = 0; k < kSetups; ++k) {
    rig.reset();
    const auto t0 = Clock::now();
    build_stream_instances(jobs);
    auto started = start_cluster(kClients);
    setups.push_back(seconds_between(t0, Clock::now()));
    if (!started) {
      verifier.count_missing("cluster start: " + started.status().to_string());
      return;
    }
    rig = std::move(*started);
  }

  // Closed loop: each client submits its next job when the last returns.
  struct Sample {
    double latency_s, ack_s, queue_s, run_s;
    std::uint64_t moves;
    double gap_pct;
  };
  std::atomic<std::size_t> next{0};
  const auto loop = [&](double seconds, SpanRecorder* spans) {
    std::vector<std::vector<Sample>> per_client(kClients);
    const auto t0 = Clock::now();
    const auto end = t0 + std::chrono::duration<double>(seconds);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        do {
          const std::size_t ticket = next.fetch_add(1);
          const auto& job = jobs[ticket % kPool];
          auto run = run_remote(rig->clients[c], job);
          if (spans) {
            const int lane = static_cast<int>(c);
            const auto root = spans->add({"stream.job", spans->us_of(run.started),
                                          spans->us_of(run.finished), -1, ticket, lane});
            spans->add({"net.submit", spans->us_of(run.started), spans->us_of(run.acked), root,
                        ticket, lane});
            spans->add({"net.wait", spans->us_of(run.acked), spans->us_of(run.finished), root,
                        ticket, lane});
          }
          if (verifier.record(job.gate(), run.status, run.result.best, run.result.best_value,
                              run.result.total_moves)) {
            per_client[c].push_back({run.latency_s(), run.ack_s(), run.result.queue_seconds,
                                     run.result.run_seconds, run.result.total_moves,
                                     100.0 * (job.lp_bound - run.result.best_value) /
                                         job.lp_bound});
          }
        } while (Clock::now() < end);
      });
    }
    for (auto& thread : threads) thread.join();
    const double wall = seconds_between(t0, Clock::now());
    std::vector<Sample> all;
    for (auto& samples : per_client) all.insert(all.end(), samples.begin(), samples.end());
    return std::pair{all, wall};
  };
  const auto column = [](const std::vector<Sample>& samples, double Sample::*field) {
    std::vector<double> values;
    for (const auto& sample : samples) values.push_back(sample.*field);
    return values;
  };

  // Warm-up: one job per client.
  loop(0.0, nullptr);
  if (!options.trace) {
    const auto [samples, wall] = loop(options.seconds, nullptr);
    std::uint64_t moves = 0;
    for (const auto& sample : samples) moves += sample.moves;
    set_latency_metrics(out, column(samples, &Sample::latency_s), wall, moves, median(setups));
    out.set("gap_to_lp_pct", mean(column(samples, &Sample::gap_pct)), "%");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  SpanRecorder spans;
  const auto [plain, plain_wall] = loop(options.seconds / 2, nullptr);
  const auto before = rig->coordinator->stats();
  const auto [traced, traced_wall] = loop(options.seconds / 2, &spans);
  const auto after = rig->coordinator->stats();
  const double n = static_cast<double>(std::max<std::size_t>(1, traced.size()));
  out.set("obs.trace_overhead_pct",
          overhead_pct(column(traced, &Sample::latency_s), column(plain, &Sample::latency_s)),
          "%");
  out.set("service.queue_ms", 1000.0 * median(column(traced, &Sample::queue_s)), "ms");
  out.set("service.run_ms", 1000.0 * median(column(traced, &Sample::run_s)), "ms");
  out.set("net.ack_ms", 1000.0 * median(column(traced, &Sample::ack_s)), "ms");
  out.set("cluster.dispatches_per_job",
          static_cast<double>(after.dispatched - before.dispatched) / n, "ratio");
  out.set("cluster.replicated_per_job",
          static_cast<double>(after.records_replicated - before.records_replicated) / n, "ratio");
  rig.reset();

  ParallelLedger parallel("parallel.");
  run_common_ledger(options, {nullptr, nullptr, 0.0, nullptr, nullptr, true}, verifier, spans,
                    parallel, out);
}

}  // namespace e2e
