#pragma once
// SolverService: the one job table (DESIGN.md §7). Many MKP solve jobs share
// a bounded queue and a pool of slots; every accepted submission gets a
// future that resolves exactly once to a result or a structured error —
// never an abort, never a dangling future. The same class fronts one
// process (pts_serve, the local executor) and a whole cluster (the
// coordinator, whose executor runs jobs on worker nodes).
//
// Submission. submit(SubmitRequest) validates and enqueues, returning
// Expected<JobHandle>: admission failures (bad options, backpressure,
// shutdown) come back as a Status. Instances are content-addressed
// (snapshot::instance_hash64 over their canonical wire bytes); a submission
// whose instance bytes AND solve shape (options minus priority, deadline
// and worker path, plus the warm-start policy) match a queued or running
// job attaches to it as an extra *waiter* — one solve, every waiter's
// future resolved from it, each with its own deadline.
//
// Scheduling. A scheduler thread dispatches whenever the executor has free
// capacity. Journal-resumed jobs go first, in their original dispatch
// order; everything else is weighted-fair queuing over tenants (least
// virtual time first, then priority, then submission order), subject to
// each tenant's max_running_slots quota. Backpressure sheds the lowest-
// weight, lowest-priority queued job, and only for a submission that
// strictly outranks it.
//
// Executors. Where a dispatched job runs is an Executor: the default local
// one runs run_parallel_tabu_search on this process's pool (warm-start
// lookup and save included); the cluster's remote one runs it on a worker
// node. The executor reports its capacity; the scheduler charges each
// running job its slots against it.
//
// Cancellation and deadlines. Every dispatched job owns a CancelSource armed
// with the most generous waiter deadline; the executor's run observes its
// token. cancel(id) detaches one waiter; cancelling the last one stops the
// run. A waiter whose own deadline passes first resolves kDeadlineExceeded
// alone.
//
// Journal. Every accepted waiter is recorded at submit (kSubmitted, plus
// kDedup for an attached one), every dispatch is stamped (kDispatched) and
// every terminal resolution is struck (kResolved) — except resolutions
// caused by shutdown(), which stay open so the next incarnation replays
// them. The records go to the journal file (ServiceConfig::journal_path)
// and, all but kDispatched, to an optional RecordSink in append order —
// the cluster's replication stream. The constructor re-enqueues a replayed
// journal's survivors as JobOrigin::kResumed; take_recovered() hands back
// their futures.
//
// examples/batch_server.cpp drives a mixed multi-tenant workload through it.

#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "service/job.hpp"
#include "service/journal.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace pts::service {

/// One dispatched solve as its executor sees it; fixed once dispatched.
struct Dispatch {
  std::shared_ptr<const mkp::Instance> instance;
  std::uint64_t content_hash = 0;
  JobOptions options;  ///< the first waiter's, as submitted
  TenantId tenant;     ///< the first waiter's
  WarmStartPolicy warm_start = WarmStartPolicy::kDisabled;
  /// The resolved preset, clamped to the executor's per-job capacity. At
  /// dispatch time_limit_seconds becomes the budget (cut short by the solve
  /// deadline) and `cancel` the run's token: cancel, or the most generous
  /// waiter deadline.
  parallel::ParallelConfig config;
};

/// Where a dispatched job runs (DESIGN.md §7 "Executors").
class Executor {
 public:
  struct Capacity {
    std::size_t slots = 0;    ///< slots that can run at once; 0 = none now
    std::size_t per_job = 0;  ///< the most one job can occupy
  };

  virtual ~Executor() = default;
  /// Called under the service lock: must not call back into the service.
  [[nodiscard]] virtual Capacity capacity() const = 0;
  /// Runs one job to its end on the calling job thread, stopping early once
  /// `job.config.cancel` fires. A value is the run's output (best,
  /// counters...); the service decides its status. An error means nothing
  /// usable ran, and every waiter resolves with it.
  [[nodiscard]] virtual Expected<JobResult> run(const Dispatch& job) = 0;
};

/// Receives the service's kSubmitted/kDedup/kResolved journal records in
/// append order, whether or not a journal file is open. Called with the
/// service lock held or from job threads: must not call back into it.
class RecordSink {
 public:
  virtual ~RecordSink() = default;
  virtual void submitted(JobId id, const mkp::Instance& instance,
                         const JobOptions& options, const TenantId& tenant,
                         WarmStartPolicy warm_start) = 0;
  virtual void dedup(JobId follower, JobId primary) = 0;
  virtual void resolved(JobId id) = 0;
};

class SolverService {
 public:
  /// `executor` null = the local executor over config.num_workers threads.
  /// A given executor and `sink` are borrowed and must outlive the service.
  explicit SolverService(ServiceConfig config = {},
                         Executor* executor = nullptr,
                         RecordSink* sink = nullptr);
  ~SolverService();  ///< shutdown(): cancels outstanding work, joins all threads

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// A journal-recovered job: its id and future (see take_recovered).
  struct Submission {
    JobId id = 0;
    std::future<JobResult> result;
  };

  /// The submission API. Non-blocking and abort-free: admission failures
  /// (invalid options, queue backpressure, shutdown) return a Status;
  /// an accepted submission's future always resolves — run-time failures
  /// (backend death, deadline, cancellation) arrive as the JobResult's
  /// own Status. The instance is shared into the job (and its JobResult)
  /// so its lifetime is independent of the caller's copy.
  [[nodiscard]] Expected<JobHandle> submit(SubmitRequest request);

  /// Queued waiter: resolves kCancelled immediately without running.
  /// Waiter on a running solve: detaches it (the shared solve continues for
  /// any other waiters; the last waiter's cancel fires the run's token and
  /// its future resolves kCancelled with the best found so far). Returns
  /// false for ids that are unknown or already resolved.
  bool cancel(JobId id);

  /// Stops accepting work, cancels every queued and running job, and joins
  /// all threads. Every outstanding future resolves, with `status` when the
  /// shutdown is what ended it. Idempotent; the destructor calls it. Those
  /// resolutions are never struck from the journal: the jobs come back as
  /// kResumed in the next incarnation.
  void shutdown(Status status = Status::cancelled("service shutting down"));

  /// Jobs replayed from the journal and re-enqueued by the constructor, in
  /// their original submission order. Single-shot: moves the submissions
  /// (with their futures) out; later calls return empty.
  [[nodiscard]] std::vector<Submission> take_recovered();

  [[nodiscard]] std::size_t queued_jobs() const;
  [[nodiscard]] std::size_t running_jobs() const;
  [[nodiscard]] ServiceStats stats() const;

 private:
  struct Waiter;
  struct Job;

  /// Weighted-fair-queuing ledger for one tenant.
  struct TenantState {
    double weight = 1.0;
    std::size_t max_running_slots = 0;  ///< 0 = no quota
    double vtime = 0.0;                 ///< accrued virtual time
    std::size_t running_slots = 0;
  };

  /// What the internal submit path reports to submit() and the journal
  /// replay. The future is always valid; when `error` is non-OK it has
  /// already been resolved with that error.
  struct SubmitOutcome {
    JobId id = 0;
    TenantId tenant;
    std::uint64_t content_hash = 0;
    bool deduplicated = false;
    Status error;
    std::future<JobResult> future;
  };

  SubmitOutcome submit_full(SubmitRequest request, JobOrigin origin,
                            std::uint64_t resume_rank = 0);
  /// Admits a fresh job into the queue: idle-tenant vtime catch-up, id
  /// assignment from its first waiter, enqueue, and the kSubmitted record.
  /// Shared by the normal accept path and shed-admission so both produce
  /// identically-initialized jobs.
  void accept_job_locked(const std::shared_ptr<Job>& job,
                         std::unique_ptr<Waiter> waiter);
  /// Records a waiter's kSubmitted in the journal file and the sink.
  void journal_submitted_locked(Waiter& waiter, const mkp::Instance& instance);
  /// Strikes a recorded waiter (no-op when it never made it into a record).
  void journal_resolved(const Waiter& waiter);
  TenantState& tenant_state_locked(const TenantId& tenant);
  void scheduler_loop();
  void dispatch_ready_locked();
  void sweep_queue_locked();
  void maybe_compact_journal_locked();
  void reap_finished_locked(std::unique_lock<std::mutex>& lock);
  void run_job(const std::shared_ptr<Job>& job);
  /// Resolves one waiter that never got (or never will get) a run result.
  static void resolve_waiter(Waiter& waiter, const Job* job, Status status);

  ServiceConfig config_;
  /// Owned local executor; null when the caller supplied one.
  std::unique_ptr<Executor> local_;
  Executor* executor_;
  RecordSink* sink_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;

  std::vector<std::shared_ptr<Job>> queue_;  // unsorted; dispatch scans
  std::map<JobId, std::shared_ptr<Job>> running_;
  std::map<JobId, std::thread> job_threads_;
  std::vector<JobId> finished_;  ///< job threads done, awaiting join

  std::size_t used_slots_ = 0;  ///< charged by running jobs
  JobId next_id_ = 1;
  std::uint64_t next_start_sequence_ = 1;
  bool stopping_ = false;
  Status shutdown_status_;  ///< what shutdown() resolves with
  ServiceStats stats_;

  /// WFQ ledgers, lazily populated; the global virtual clock tracks the
  /// busiest tenant so a newly active one starts level, not ahead.
  std::map<TenantId, TenantState> tenants_;
  double global_vtime_ = 0.0;

  /// Null when journaling is off (empty path or the journal failed to open).
  std::unique_ptr<journal::JobJournal> journal_;
  std::vector<Submission> recovered_;  ///< replayed jobs, until take_recovered()

  std::thread scheduler_;  // started last, joined by shutdown()
};

}  // namespace pts::service
