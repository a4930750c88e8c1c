#pragma once
// Shared pieces of the end-to-end benchmark: options, the metric list, the
// job runners for each front door, the master ledger and the loopback
// cluster rig. README.md in this directory describes the workloads and
// metrics.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/coordinator.hpp"
#include "cluster/worker_node.hpp"
#include "mkp/instance.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "parallel/master.hpp"
#include "parallel/runner.hpp"
#include "rows.hpp"
#include "spans.hpp"
#include "verifier.hpp"
#include "util/status.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path for the traced run
};

/// Seeds of independent input streams derived from the workload seed.
std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream);

/// Named metrics in print order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<std::string>& order() const { return order_; }
  [[nodiscard]] double value(const std::string& name) const { return values_.at(name).first; }
  [[nodiscard]] const std::string& unit(const std::string& name) const {
    return values_.at(name).second;
  }

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Master control-flow timestamps of one run (ParallelConfig::observer).
class RoundClock final : public pts::parallel::MasterTrace {
 public:
  void on_round_start(std::size_t round) override;
  void on_assignments_sent(std::size_t round, std::size_t count) override;
  void on_reports_gathered(std::size_t round, std::size_t count) override;

  std::vector<Clock::time_point> start, sent, gathered;
};

/// One in-process run_parallel_tabu_search call and its timing.
struct InprocRun {
  std::optional<pts::parallel::ParallelResult> result;  ///< set once the call returns
  Clock::time_point called, returned;
  RoundClock rounds;
  [[nodiscard]] double latency_s() const { return seconds_between(called, returned); }
};

/// Runs `config` on `inst`, observing the master when `observe` is set.
std::unique_ptr<InprocRun> run_inproc(const pts::mkp::Instance& inst,
                                      pts::parallel::ParallelConfig config, bool observe);

/// Master/transport ledger over observed runs: each value is the median over
/// runs of a per-run figure.
class ParallelLedger {
 public:
  /// Metric and span names are `<prefix><name>`, e.g. "parallel.round_ms".
  explicit ParallelLedger(std::string prefix) : prefix_(std::move(prefix)) {}

  /// Adds one observed run and records its master phases (first
  /// kMaxRoundSpans rounds) as spans under `parent`.
  void add(const InprocRun& run, SpanRecorder& spans, std::int64_t parent, std::uint64_t job,
           int lane);
  /// Writes the master/transport medians.
  void report(Metrics& out) const;
  /// Writes the tabu waste ratios from the runs' merged counters.
  void report_counters(Metrics& out) const;

  static constexpr std::size_t kMaxRoundSpans = 64;

 private:
  std::string prefix_;
  std::vector<double> start_ms_, scatter_ms_, round_ms_, master_ms_, slave_round_ms_,
      transport_ms_, idle_frac_, busy_frac_, unattributed_frac_;
  pts::obs::Counters counters_;
};

/// LP relaxation bound of `inst` (preparation, not timed).
double lp_bound(const pts::mkp::Instance& inst);

/// Stream-shaped job: GK 10x100 under the `quick` preset, stopped at a
/// target calibrated in-process beforehand.
struct StreamJob {
  std::size_t index = 0;
  Rows rows;
  std::uint64_t seed = 0;
  double target = 0.0;
  double lp_bound = 0.0;
  std::shared_ptr<const pts::mkp::Instance> instance;  ///< built during set-up

  [[nodiscard]] Verifier::Job gate() const;
  [[nodiscard]] pts::service::SubmitRequest request() const;
  /// The configuration the service resolves request() to (door 1).
  [[nodiscard]] pts::parallel::ParallelConfig inproc_config() const;
};

inline constexpr double kStreamBudgetSeconds = 10.0;
inline constexpr std::size_t kNodeWorkers = 2;

/// Draws, bounds and calibrates `count` stream jobs (not timed).
std::vector<StreamJob> prepare_stream_jobs(std::uint64_t workload_seed, std::size_t count);
/// Builds every job's Instance from its rows (timed set-up).
void build_stream_instances(std::vector<StreamJob>& jobs);

/// Two WorkerNodes, a Coordinator over them and a net::Server in front, on
/// loopback, plus connected clients. Members are declared so that the
/// default destructor stops clients, then the server, the coordinator and
/// the nodes.
struct ClusterRig {
  std::vector<std::unique_ptr<pts::cluster::WorkerNode>> nodes;
  std::unique_ptr<pts::cluster::Coordinator> coordinator;
  std::unique_ptr<pts::net::Server> server;
  std::vector<pts::net::Client> clients;
};
pts::Expected<std::unique_ptr<ClusterRig>> start_cluster(std::size_t num_clients);

/// Outcome of one remote (net) submission.
struct RemoteRun {
  pts::Status status;
  pts::service::JobResult result;
  Clock::time_point started, acked, finished;
  [[nodiscard]] double ack_s() const { return seconds_between(started, acked); }
  [[nodiscard]] double latency_s() const { return seconds_between(started, finished); }
};
RemoteRun run_remote(pts::net::Client& client, const StreamJob& job);

/// Peak RSS of this process plus its largest reaped child, in MB.
double peak_rss_mb();

/// The solve workload times one fixed-seed job. Its wall time is not drawn
/// from --seed: with the strategies the master draws at random, one balanced
/// 25x500 job on one instance took 1.3 s to 9.6 s depending on the search
/// seed alone, so a run of a few jobs per seed could not resolve a 25%
/// change. The traced run's probes still draw their jobs from --seed.
inline constexpr std::uint64_t kFixedJobSeed = 20260707;

/// The cooperation-heavy job of the traced run's backend probe: GK 10x100,
/// CTS2 with 4 slaves, rounds of a few moves each, so scatter, gather and
/// the slave transport dominate.
pts::parallel::ParallelConfig coop_config(std::uint64_t seed);

// Workload entry points; each fills end-to-end metrics (untraced) or
// per-layer metrics (traced).
void run_solve(const Options& options, Verifier& verifier, Metrics& out);
void run_stream(const Options& options, Verifier& verifier, Metrics& out);

/// The per-layer probes every traced run makes in addition to its own
/// workload phase: kernel and move replay, single-thread engine baseline,
/// the four-door split over stream-shaped jobs and the proc/thread probe.
struct LedgerInputs {
  const pts::mkp::Instance* instance = nullptr;  ///< for the tabu replay
  const Rows* rows = nullptr;                    ///< rows `instance` was built from
  double lp_bound = 0.0;
  const pts::parallel::ParallelConfig* config = nullptr;
  const InprocRun* sample = nullptr;  ///< a finished run on `instance`
  bool stream = false;  ///< stream workload: its own phase already filled service/net/cluster
};
void run_common_ledger(const Options& options, const LedgerInputs& inputs, Verifier& verifier,
                       SpanRecorder& spans, ParallelLedger& parallel, Metrics& out);

}  // namespace e2e
