// Golden byte fixtures for every binary format (DESIGN.md §8, §9): the worker
// wire, the client protocol, the cluster peer frames, master snapshots, the
// job journal and warm-start entries. Each canonical message below must
// encode to exactly the bytes checked in under tests/codec/golden/, and each
// fixture must decode and re-encode to itself. Fixtures of older format
// versions the loaders still accept (journal v1/v2, snapshot v1) are
// decode-only: no current encoder writes them, so they pin the readers.
//
// A mismatch writes the bytes the code produced to
// <gtest TempDir>/golden_actual/<name>.hex. Copying that file over the
// checked-in fixture is how a deliberate, version-bumped format change is
// recorded — never to paper over an accidental one.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/peer_protocol.hpp"
#include "net/protocol.hpp"
#include "parallel/snapshot.hpp"
#include "parallel/wire.hpp"
#include "service/journal.hpp"
#include "service/warm_start.hpp"

#ifndef PTS_GOLDEN_DIR
#error "build must define PTS_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

namespace pts {
namespace {

namespace fs = std::filesystem;
namespace wire = parallel::wire;
namespace snapshot = parallel::snapshot;
namespace journal = service::journal;

using Bytes = std::vector<std::uint8_t>;

// -- Fixture files: hex text, 32 bytes a line. -------------------------------

std::string to_hex(const Bytes& bytes) {
  std::string out;
  char buf[4];
  for (std::size_t k = 0; k < bytes.size(); ++k) {
    std::snprintf(buf, sizeof buf, "%02x", bytes[k]);
    out += buf;
    out += (k % 32 == 31 || k + 1 == bytes.size()) ? '\n' : ' ';
  }
  return out;
}

Bytes from_hex(const std::string& text) {
  Bytes out;
  int high = -1;
  for (const char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    const int digit = std::isdigit(static_cast<unsigned char>(c))
                          ? c - '0'
                          : std::tolower(static_cast<unsigned char>(c)) - 'a' + 10;
    if (high < 0) {
      high = digit;
    } else {
      out.push_back(static_cast<std::uint8_t>(high * 16 + digit));
      high = -1;
    }
  }
  return out;
}

Bytes fixture(const std::string& name) {
  std::ifstream in(std::string(PTS_GOLDEN_DIR) + "/" + name + ".hex");
  EXPECT_TRUE(in) << "missing golden fixture " << name;
  std::stringstream text;
  text << in.rdbuf();
  return from_hex(text.str());
}

void expect_golden(const std::string& name, const Bytes& actual) {
  const auto expected = fixture(name);
  if (actual == expected) return;
  const auto dir = fs::path(::testing::TempDir()) / "golden_actual";
  fs::create_directories(dir);
  std::ofstream(dir / (name + ".hex")) << to_hex(actual);
  ADD_FAILURE() << name << ": encoding differs from the golden fixture ("
                << actual.size() << " vs " << expected.size()
                << " bytes); actual bytes written to "
                << (dir / (name + ".hex")).string();
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::string fresh_dir(const char* name) {
  const auto dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::span<const std::uint8_t> payload(const Bytes& frame) {
  return std::span<const std::uint8_t>(frame).subspan(wire::kHeaderBytes);
}

// -- Canonical messages. -----------------------------------------------------

/// 66 items (two bitvec words) over two constraints, with a known optimum:
/// small enough to keep fixtures readable, wide enough to cross a word.
mkp::Instance golden_instance() {
  std::vector<double> profits;
  std::vector<double> weights;
  for (std::size_t j = 0; j < 66; ++j) profits.push_back(10.0 + (j * 7) % 13);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 66; ++j) {
      weights.push_back(1.0 + static_cast<double>((i * 5 + j * 3) % 11));
    }
  }
  mkp::Instance inst("golden-66x2", std::move(profits), std::move(weights),
                     {60.0, 70.0});
  inst.set_known_optimum(321.5);
  return inst;
}

mkp::Solution solution_of(const mkp::Instance& inst,
                          std::initializer_list<std::size_t> items) {
  mkp::Solution solution(inst);
  for (const auto j : items) solution.add(j);
  return solution;
}

tabu::TsParams golden_params() {
  tabu::TsParams p;
  p.strategy = {11, 3, 77, 16};
  p.nb_div = 5;
  p.nb_int = 2;
  p.b_best = 4;
  p.intensification = tabu::IntensificationKind::kStrategicOscillation;
  p.oscillation_depth = 9;
  p.tenure_control = tabu::TenureControl::kReactive;
  p.high_frequency = 0.7321;
  p.low_frequency = 0.1234;
  p.diversify_hold = 31;
  p.max_moves = 12345;
  p.time_limit_seconds = 0.375;
  p.target_value = 9876.5;
  p.run_to_budget = true;
  return p;
}

parallel::Report golden_report(const mkp::Instance& inst) {
  parallel::Report report;
  report.slave_id = 3;
  report.round = 12;
  report.initial_value = 101.25;
  report.final_value = 222.75;
  report.elite.push_back(solution_of(inst, {0, 5, 64}));
  report.elite.push_back(solution_of(inst, {1, 2, 65}));
  report.moves = 4242;
  report.seconds = 0.0625;
  report.reached_target = true;
  report.counters[obs::Counter::kMovesTried] = 4242;
  report.counters[obs::Counter::kDroppedMessages] = 1;
  report.anytime.push_back({3, 0.5, 100, 150.0});
  report.anytime.push_back({3, 0.75, 200, 222.75});
  return report;
}

wire::TelemetryChunk golden_chunk() {
  wire::TelemetryChunk chunk;
  chunk.slave_id = 2;
  chunk.worker_now_us = 123'456;
  wire::ChunkEvent span;
  span.name = "slave_round";
  span.phase = 'X';
  span.tid = 3;
  span.ts_us = 1'000;
  span.dur_us = 250;
  span.args = {{"round", 4.0}, {"moves", 1'024.0}};
  chunk.events.push_back(span);
  wire::ChunkEvent instant;
  instant.name = "improved";
  instant.phase = 'i';
  instant.tid = 3;
  instant.ts_us = 1'100;
  instant.has_detail = true;
  instant.detail_key = "kind";
  instant.detail = "new incumbent";
  chunk.events.push_back(instant);
  chunk.counter_deltas = {{"worker_reports_total", 1}, {"moves_total", 2'048}};
  return chunk;
}

service::JobOptions golden_options() {
  service::JobOptions options;
  options.preset = "thorough";
  options.time_budget_seconds = 3.5;
  options.deadline_seconds = 12.0;
  options.priority = 7;
  options.seed = 99;
  options.target_value = 1234.5;
  options.mode = parallel::CooperationMode::kCooperativePool;
  options.backend = parallel::Backend::kProcess;
  options.proc.worker_path = "/usr/local/bin/pts_worker";
  options.proc.max_respawns_per_slave = 5;
  options.proc.breaker_threshold = 2;
  options.core_reduction = true;
  return options;
}

net::SubmitJob golden_submit(const mkp::Instance& inst) {
  return net::SubmitJob{/*request_id=*/7,
                        /*tenant=*/"prod",
                        /*priority=*/3,
                        /*deadline_seconds=*/2.5,
                        service::WarmStartPolicy::kSimilar,
                        /*allow_dedup=*/false,
                        golden_options(),
                        mkp::Instance(inst)};
}

net::JobResultFrame golden_result(const mkp::Instance& inst) {
  net::JobResultFrame m;
  m.request_id = 9;
  m.status = Status::deadline_exceeded("deadline passed mid-run");
  m.origin = service::JobOrigin::kResumed;
  m.best = solution_of(inst, {0, 5, 64});
  m.best_value = m.best->value();
  m.total_moves = 777;
  m.reached_target = true;
  m.slave_faults = 2;
  m.queue_seconds = 0.125;
  m.run_seconds = 1.5;
  m.start_sequence = 41;
  m.tenant = "batch";
  m.content_hash = 0x0123456789ABCDEFull;
  m.deduplicated = true;
  m.warm_started = true;
  return m;
}

cluster::PeerReplicate golden_replicate(const mkp::Instance& inst) {
  cluster::PeerReplicate m;
  cluster::ReplicateRecord submitted;
  submitted.seq = 5;
  submitted.kind = cluster::ReplicateRecord::Kind::kSubmitted;
  submitted.job_id = 11;
  submitted.instance = inst;
  submitted.options = golden_options();
  submitted.tenant = "prod";
  submitted.warm_start = service::WarmStartPolicy::kExact;
  m.records.push_back(std::move(submitted));
  cluster::ReplicateRecord resolved;
  resolved.seq = 6;
  resolved.kind = cluster::ReplicateRecord::Kind::kResolved;
  resolved.job_id = 11;
  m.records.push_back(std::move(resolved));
  cluster::ReplicateRecord dedup;
  dedup.seq = 7;
  dedup.kind = cluster::ReplicateRecord::Kind::kDedup;
  dedup.job_id = 12;
  dedup.dedup_primary = 11;
  m.records.push_back(std::move(dedup));
  return m;
}

snapshot::MasterCheckpoint golden_checkpoint(const mkp::Instance& inst,
                                             bool with_core) {
  snapshot::MasterCheckpoint cp(inst);
  cp.instance_fingerprint = snapshot::instance_fingerprint(inst);
  cp.seed = 29;
  cp.num_slaves = 2;
  cp.share_solutions = true;
  cp.adapt_strategies = false;
  cp.next_round = 4;
  cp.best = solution_of(inst, {0, 5, 64});
  cp.master_rng_state = {1, 2, 0xFFFFFFFFFFFFFFFFull, 0x8000000000000000ull};
  snapshot::SlaveState a;
  a.strategy = {13, 4, 150, 32};
  a.score = -3;
  a.initial = solution_of(inst, {7});
  a.b_best = {solution_of(inst, {0, 5, 64}), solution_of(inst, {1, 65})};
  a.rounds_unchanged = 2;
  a.moves_before_round = 5000;
  a.consecutive_faults = 1;
  a.active = true;
  snapshot::SlaveState b;
  b.strategy = {9, 2, 60, 8};
  b.score = 4;
  b.active = false;
  cp.slaves = {a, b};
  cp.total_moves = 123456;
  cp.elapsed_seconds = 2.75;
  cp.rounds_completed = 4;
  cp.strategy_retunes = 3;
  cp.global_best_injections = 2;
  cp.random_restarts = 1;
  cp.relink_improvements = 5;
  cp.slave_faults = 6;
  cp.slave_respawns = 7;
  if (with_core) {
    cp.core.full_instance_fingerprint = 0xDEADBEEFu;
    cp.core.status = {bounds::FixedValue::kZero, bounds::FixedValue::kFree,
                      bounds::FixedValue::kOne};
  }
  return cp;
}

std::vector<snapshot::SlaveState> golden_slaves(const mkp::Instance& inst) {
  snapshot::SlaveState a;
  a.strategy = {13, 4, 150, 32};
  a.score = 5;
  a.b_best = {solution_of(inst, {1, 65}), solution_of(inst, {0, 5, 64})};
  snapshot::SlaveState b;
  b.strategy = {9, 2, 60, 8};
  b.score = -1;
  b.initial = solution_of(inst, {7});
  return {a, b};
}

// -- Worker wire (v3). -------------------------------------------------------

TEST(CodecGolden, WorkerWireFrames) {
  const auto inst = golden_instance();
  const auto hello = wire::encode_hello({3, 0xFEEDFACEull, inst, 3});
  expect_golden("wire_hello", hello);
  {
    auto decoded = wire::decode_hello(payload(hello));
    ASSERT_TRUE(decoded) << decoded.status().to_string();
    EXPECT_EQ(wire::encode_hello(*decoded), hello);
  }

  const parallel::Assignment assignment{7, solution_of(inst, {0, 5, 64}),
                                        golden_params()};
  const auto assign_frame = wire::encode_to_slave(assignment);
  expect_golden("wire_assignment", assign_frame);
  const auto stop_frame = wire::encode_to_slave(parallel::Stop{});
  expect_golden("wire_stop", stop_frame);
  for (const auto* frame : {&assign_frame, &stop_frame}) {
    const auto header = wire::decode_header(*frame);
    ASSERT_TRUE(header);
    auto decoded = wire::decode_to_slave(header->type, payload(*frame), inst);
    ASSERT_TRUE(decoded) << decoded.status().to_string();
    EXPECT_EQ(wire::encode_to_slave(*decoded), *frame);
  }

  const auto report_frame = wire::encode_from_slave(golden_report(inst));
  expect_golden("wire_report", report_frame);
  const auto fault_frame = wire::encode_from_slave(
      parallel::SlaveFault{5, 9, "std::bad_alloc in the inner loop"});
  expect_golden("wire_fault", fault_frame);
  for (const auto* frame : {&report_frame, &fault_frame}) {
    const auto header = wire::decode_header(*frame);
    ASSERT_TRUE(header);
    auto decoded = wire::decode_from_slave(header->type, payload(*frame), inst);
    ASSERT_TRUE(decoded) << decoded.status().to_string();
    EXPECT_EQ(wire::encode_from_slave(*decoded), *frame);
  }

  const auto chunk = wire::encode_telemetry_chunk(golden_chunk());
  expect_golden("wire_telemetry", chunk);
  {
    auto decoded = wire::decode_telemetry_chunk(payload(chunk));
    ASSERT_TRUE(decoded) << decoded.status().to_string();
    EXPECT_EQ(wire::encode_telemetry_chunk(*decoded), chunk);
  }
}

TEST(CodecGolden, WireSubCodecs) {
  const auto inst = golden_instance();
  const auto solution = wire::encode_solution(solution_of(inst, {0, 5, 64}));
  expect_golden("wire_solution", solution);
  auto decoded_solution = wire::decode_solution(solution, inst);
  ASSERT_TRUE(decoded_solution) << decoded_solution.status().to_string();
  EXPECT_EQ(wire::encode_solution(*decoded_solution), solution);

  const auto strategy = wire::encode_strategy({13, 4, 150, 32});
  expect_golden("wire_strategy", strategy);
  auto decoded_strategy = wire::decode_strategy(strategy);
  ASSERT_TRUE(decoded_strategy);
  EXPECT_EQ(wire::encode_strategy(*decoded_strategy), strategy);

  const std::vector<bounds::FixedValue> status = {
      bounds::FixedValue::kFree, bounds::FixedValue::kZero,
      bounds::FixedValue::kOne};
  parallel::codec::Writer w;
  wire::put_fixed_status(w, status);
  const auto fixed = w.take();
  expect_golden("wire_fixed_status", fixed);
  parallel::codec::Reader r(fixed);
  auto decoded_fixed = wire::get_fixed_status(r);
  ASSERT_TRUE(decoded_fixed);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(*decoded_fixed, status);
}

TEST(CodecGolden, InstanceIdentityHashesDoNotMove) {
  // Both name on-disk state: the 64-bit hash names warm-start files and
  // keys dedup, the CRC fingerprint guards checkpoints.
  const auto inst = golden_instance();
  EXPECT_EQ(snapshot::instance_hash64(inst), 0x99e809da2191ba3dull);
  EXPECT_EQ(snapshot::instance_fingerprint(inst), 0xa49aa19bu);
}

// -- Client protocol (v3 client range). --------------------------------------

TEST(CodecGolden, ClientProtocolFrames) {
  const auto inst = golden_instance();
  const auto submit = net::encode_submit_job(golden_submit(inst));
  expect_golden("net_submit_job", submit);
  {
    auto decoded = net::decode_submit_job(payload(submit));
    ASSERT_TRUE(decoded) << decoded.status().to_string();
    EXPECT_EQ(net::encode_submit_job(*decoded), submit);
  }

  const auto ack = net::encode_submit_ack(
      {12, Status::resource_exhausted("queue full"), 34, 0xABCDEF01ull, true});
  expect_golden("net_submit_ack", ack);
  {
    auto decoded = net::decode_submit_ack(payload(ack));
    ASSERT_TRUE(decoded) << decoded.status().to_string();
    EXPECT_EQ(net::encode_submit_ack(*decoded), ack);
  }

  net::JobEvent event;
  event.request_id = 13;
  event.anytime = {{0, 0.25, 10, 100.0}, {-1, 0.5, 20, 150.5}};
  const auto event_frame = net::encode_job_event(event);
  expect_golden("net_job_event", event_frame);
  {
    auto decoded = net::decode_job_event(payload(event_frame));
    ASSERT_TRUE(decoded) << decoded.status().to_string();
    EXPECT_EQ(net::encode_job_event(*decoded), event_frame);
  }

  auto result = golden_result(inst);
  const auto with_best = net::encode_job_result(result);
  expect_golden("net_job_result", with_best);
  result.best.reset();
  result.status = Status();
  const auto without_best = net::encode_job_result(result);
  expect_golden("net_job_result_no_best", without_best);
  for (const auto* frame : {&with_best, &without_best}) {
    auto decoded = net::decode_job_result(payload(*frame), inst);
    ASSERT_TRUE(decoded) << decoded.status().to_string();
    EXPECT_EQ(net::encode_job_result(*decoded), *frame);
  }

  const auto cancel = net::encode_cancel_job({21});
  expect_golden("net_cancel_job", cancel);
  auto decoded_cancel = net::decode_cancel_job(payload(cancel));
  ASSERT_TRUE(decoded_cancel);
  EXPECT_EQ(net::encode_cancel_job(*decoded_cancel), cancel);

  const auto goodbye = net::encode_goodbye({"draining"});
  expect_golden("net_goodbye", goodbye);
  auto decoded_goodbye = net::decode_goodbye(payload(goodbye));
  ASSERT_TRUE(decoded_goodbye);
  EXPECT_EQ(net::encode_goodbye(*decoded_goodbye), goodbye);
}

// -- Cluster peer frames (v3 peer range). ------------------------------------

TEST(CodecGolden, PeerProtocolFrames) {
  const auto inst = golden_instance();
  const auto hello = cluster::encode_peer_hello({"prod-cluster", 3});
  expect_golden("peer_hello", hello);
  auto decoded_hello = cluster::decode_peer_hello(payload(hello));
  ASSERT_TRUE(decoded_hello);
  EXPECT_EQ(cluster::encode_peer_hello(*decoded_hello), hello);

  const auto welcome = cluster::encode_peer_welcome({"node-a", 17, 4});
  expect_golden("peer_welcome", welcome);
  auto decoded_welcome = cluster::decode_peer_welcome(payload(welcome));
  ASSERT_TRUE(decoded_welcome);
  EXPECT_EQ(cluster::encode_peer_welcome(*decoded_welcome), welcome);

  const auto ping = cluster::encode_peer_ping({99});
  expect_golden("peer_ping", ping);
  auto decoded_ping = cluster::decode_peer_ping(payload(ping));
  ASSERT_TRUE(decoded_ping);
  EXPECT_EQ(cluster::encode_peer_ping(*decoded_ping), ping);

  const auto pong = cluster::encode_peer_pong({99, 2, 5, 17});
  expect_golden("peer_pong", pong);
  auto decoded_pong = cluster::decode_peer_pong(payload(pong));
  ASSERT_TRUE(decoded_pong);
  EXPECT_EQ(cluster::encode_peer_pong(*decoded_pong), pong);

  const auto replicate = cluster::encode_peer_replicate(golden_replicate(inst));
  expect_golden("peer_replicate", replicate);
  auto decoded_replicate = cluster::decode_peer_replicate(payload(replicate));
  ASSERT_TRUE(decoded_replicate) << decoded_replicate.status().to_string();
  EXPECT_EQ(cluster::encode_peer_replicate(*decoded_replicate), replicate);

  const auto ack = cluster::encode_peer_replicate_ack({42});
  expect_golden("peer_replicate_ack", ack);
  auto decoded_ack = cluster::decode_peer_replicate_ack(payload(ack));
  ASSERT_TRUE(decoded_ack);
  EXPECT_EQ(cluster::encode_peer_replicate_ack(*decoded_ack), ack);
}

// -- Master snapshots (v2 written, v1 still read). ---------------------------

TEST(CodecGolden, SnapshotV2) {
  const auto inst = golden_instance();
  for (const bool with_core : {false, true}) {
    const auto name = with_core ? "snapshot_v2_core" : "snapshot_v2";
    const auto image = snapshot::encode_checkpoint(golden_checkpoint(inst, with_core));
    expect_golden(name, image);
    auto decoded = snapshot::decode_checkpoint(fixture(name), inst);
    ASSERT_TRUE(decoded) << decoded.status().to_string();
    EXPECT_EQ(snapshot::encode_checkpoint(*decoded), image);
    EXPECT_EQ(decoded->core.engaged(), with_core);
  }
  // The file writer produces the same image.
  const auto path = (fs::path(fresh_dir("golden_snapshot")) / "cp.ckpt").string();
  ASSERT_TRUE(snapshot::save_checkpoint(path, golden_checkpoint(inst, true)).ok());
  EXPECT_EQ(read_file(path), fixture("snapshot_v2_core"));
}

TEST(CodecGolden, SnapshotV1StillLoads) {
  const auto inst = golden_instance();
  auto decoded = snapshot::decode_checkpoint(fixture("snapshot_v1"), inst);
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  const auto expected = golden_checkpoint(inst, false);
  EXPECT_FALSE(decoded->core.engaged());
  EXPECT_EQ(decoded->seed, 29u);
  EXPECT_EQ(decoded->next_round, 4u);
  EXPECT_EQ(decoded->best, expected.best);
  ASSERT_EQ(decoded->slaves.size(), 2u);
  EXPECT_EQ(decoded->slaves[0].b_best, expected.slaves[0].b_best);
  EXPECT_FALSE(decoded->slaves[1].active);
  EXPECT_EQ(decoded->slave_respawns, 7u);
  // Re-encoding upgrades it to exactly the v2 image of the same state.
  EXPECT_EQ(snapshot::encode_checkpoint(*decoded), fixture("snapshot_v2"));
}

// -- Job journal (v3 written, v1/v2 still replayed). -------------------------

TEST(CodecGolden, JobOptionsSubCodec) {
  parallel::codec::Writer w;
  journal::put_job_options(w, golden_options());
  const auto bytes = w.take();
  expect_golden("journal_job_options", bytes);
  parallel::codec::Reader r(bytes);
  auto decoded = journal::get_job_options(r);
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_TRUE(r.done());
  parallel::codec::Writer again;
  journal::put_job_options(again, *decoded);
  EXPECT_EQ(again.take(), bytes);
}

TEST(CodecGolden, JournalV3) {
  const auto inst = golden_instance();
  const auto dir = fresh_dir("golden_journal");
  const auto path = (fs::path(dir) / "jobs.ptsj").string();
  {
    auto j = journal::JobJournal::open_truncate(path);
    ASSERT_TRUE(j) << j.status().to_string();
    auto options = golden_options();
    ASSERT_TRUE((*j)->append_submitted(1, inst, options, "prod",
                                       service::WarmStartPolicy::kExact).ok());
    options.core_reduction = false;
    ASSERT_TRUE((*j)->append_submitted(2, inst, options).ok());
    ASSERT_TRUE((*j)->append_submitted(3, inst, options, "batch",
                                       service::WarmStartPolicy::kSimilar).ok());
    ASSERT_TRUE((*j)->append_dispatched(1, 8).ok());
    ASSERT_TRUE((*j)->append_dedup(3, 1).ok());
    ASSERT_TRUE((*j)->append_resolved(2).ok());
  }
  expect_golden("journal_v3", read_file(path));

  write_file(path, fixture("journal_v3"));
  auto jobs = journal::recover_jobs(path);
  ASSERT_TRUE(jobs) << jobs.status().to_string();
  ASSERT_EQ(jobs->size(), 2u);
  const auto& first = (*jobs)[0];
  EXPECT_EQ(first.id, 1u);
  EXPECT_EQ(first.dispatch_sequence, 8u);
  EXPECT_EQ(first.tenant, "prod");
  EXPECT_EQ(first.warm_start, service::WarmStartPolicy::kExact);
  EXPECT_TRUE(first.options.core_reduction);
  EXPECT_EQ(first.options.proc.worker_path, "/usr/local/bin/pts_worker");
  EXPECT_EQ(snapshot::instance_hash64(first.instance),
            snapshot::instance_hash64(inst));
  const auto& third = (*jobs)[1];
  EXPECT_EQ(third.id, 3u);
  EXPECT_EQ(third.dedup_primary, 1u);
  EXPECT_EQ(third.tenant, "batch");
  EXPECT_FALSE(third.options.core_reduction);

  // Compaction rewrites the replayed set to a canonical image.
  std::vector<journal::LiveJob> live;
  for (const auto& job : *jobs) {
    live.push_back({job.id, &job.instance, &job.options, job.dispatch_sequence,
                    &job.tenant, job.warm_start, job.dedup_primary});
  }
  const auto compacted = (fs::path(dir) / "compacted.ptsj").string();
  {
    auto j = journal::JobJournal::open_truncate(compacted);
    ASSERT_TRUE(j);
    ASSERT_TRUE((*j)->compact(live).ok());
  }
  expect_golden("journal_v3_compacted", read_file(compacted));
}

TEST(CodecGolden, JournalV1AndV2StillReplay) {
  const auto inst = golden_instance();
  const auto path =
      (fs::path(fresh_dir("golden_journal_old")) / "jobs.ptsj").string();

  // v1: one submission, no core_reduction flag, no tenant tail.
  write_file(path, fixture("journal_v1"));
  auto v1 = journal::recover_jobs(path);
  ASSERT_TRUE(v1) << v1.status().to_string();
  ASSERT_EQ(v1->size(), 1u);
  EXPECT_EQ((*v1)[0].id, 4u);
  EXPECT_EQ((*v1)[0].options.preset, "thorough");
  EXPECT_EQ((*v1)[0].options.seed, 99u);
  EXPECT_FALSE((*v1)[0].options.core_reduction);
  EXPECT_TRUE((*v1)[0].tenant.empty());
  EXPECT_EQ((*v1)[0].warm_start, service::WarmStartPolicy::kDisabled);
  EXPECT_EQ(snapshot::instance_hash64((*v1)[0].instance),
            snapshot::instance_hash64(inst));

  // v2: two submissions with the core flag, a dispatch record, a strike.
  write_file(path, fixture("journal_v2"));
  auto v2 = journal::recover_jobs(path);
  ASSERT_TRUE(v2) << v2.status().to_string();
  ASSERT_EQ(v2->size(), 1u);
  EXPECT_EQ((*v2)[0].id, 6u);
  EXPECT_TRUE((*v2)[0].options.core_reduction);
  EXPECT_EQ((*v2)[0].dispatch_sequence, 3u);
  EXPECT_TRUE((*v2)[0].tenant.empty());
}

// -- Warm-start entries (v1). ------------------------------------------------

TEST(CodecGolden, WarmStartEntryV1) {
  const auto inst = golden_instance();
  const auto hash = snapshot::instance_hash64(inst);
  const auto best = solution_of(inst, {0, 5, 64});
  const auto dir = fresh_dir("golden_warm_start");
  {
    service::WarmStartStore store(dir);
    ASSERT_TRUE(store.save(inst, hash, best, golden_slaves(inst)).ok());
  }
  char name[32];
  std::snprintf(name, sizeof name, "ws_%016llx.ptsw",
                static_cast<unsigned long long>(hash));
  const auto path = (fs::path(dir) / name).string();
  expect_golden("warm_start_v1", read_file(path));

  const auto load_dir = fresh_dir("golden_warm_start_load");
  write_file((fs::path(load_dir) / name).string(), fixture("warm_start_v1"));
  service::WarmStartStore store(load_dir);
  const auto hit = store.lookup(inst, hash, service::WarmStartPolicy::kExact);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->exact);
  EXPECT_EQ(hit->stored_best, best.value());
  ASSERT_EQ(hit->warm.strategies.size(), 2u);
  EXPECT_EQ(hit->warm.strategies[0], (tabu::Strategy{13, 4, 150, 32}));
  EXPECT_EQ(hit->warm.scores, (std::vector<int>{5, -1}));
  ASSERT_EQ(hit->warm.initials.size(), 3u);
  EXPECT_EQ(hit->warm.initials[0], best);
  EXPECT_EQ(hit->warm.initials[2], solution_of(inst, {7}));
}

}  // namespace
}  // namespace pts
