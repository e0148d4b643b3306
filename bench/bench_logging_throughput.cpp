// E9 — confidential logging path (Figure 2): records/second through glsn
// sequencing + fragmentation + accumulator deposit, across cluster sizes,
// against the centralized repository of Figure 1.
//
// Expected shape: the DLA path pays 4n + 4 messages per record (request,
// forward, n proposals, n votes, two replies, then per node one upload that
// carries the accumulator deposit and one ack) and one accumulator fold, so
// per-record cost grows linearly with n; the centralized baseline is a
// single message and wins raw throughput — the price of zero store
// confidentiality.
//
// Beside it, the fixed costs each owner pays per fragment upload: the
// ticket check (one HMAC-SHA256 over the ticket text), the WAL frame
// append, and SHA-256 itself at one block and at 4.8 KB.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "audit/cluster.hpp"
#include "audit/ticket.hpp"
#include "baseline/centralized.hpp"
#include "crypto/sha256.hpp"
#include "logm/wal.hpp"
#include "logm/workload.hpp"

using namespace dla;

namespace {

void BM_DlaLogging(benchmark::State& state) {
  const std::size_t n_nodes = static_cast<std::size_t>(state.range(0));
  const std::size_t batch = static_cast<std::size_t>(state.range(1));
  crypto::ChaCha20Rng rng(23);
  logm::WorkloadSpec spec;
  spec.records = batch;
  auto records = logm::generate_workload(spec, rng);
  audit::Cluster cluster(audit::Cluster::Options{
      logm::paper_schema(), n_nodes, 1,
      logm::AttributePartition::round_robin(logm::paper_schema(), n_nodes),
      /*seed=*/9, /*auditor_users=*/true});
  cluster.sim().reset_stats();
  std::size_t logged = 0;
  for (auto _ : state) {
    for (const auto& rec : records) {
      cluster.user(0).log_record(cluster.sim(), rec.attrs,
                                 [&](std::optional<logm::Glsn> g) {
                                   logged += g.has_value();
                                 });
      // Sequential submission: one record fully logged per round trip, the
      // realistic client pattern (and it keeps sequencer contention out of
      // the measurement).
      cluster.run();
    }
  }
  if (logged != state.iterations() * batch) {
    state.SkipWithError("some records were not logged");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(logged));
  state.counters["nodes"] = static_cast<double>(n_nodes);
  state.counters["msgs/record"] = benchmark::Counter(
      static_cast<double>(cluster.sim().stats().messages_sent) /
          std::max<double>(1.0, static_cast<double>(logged)),
      benchmark::Counter::kDefaults);
  state.counters["bytes/record"] = benchmark::Counter(
      static_cast<double>(cluster.sim().stats().bytes_sent) /
          std::max<double>(1.0, static_cast<double>(logged)),
      benchmark::Counter::kDefaults);
}

void BM_DlaLoggingBandwidthLimited(benchmark::State& state) {
  // Same path under the FIFO link model: bandwidth in bytes/us. At low
  // rates the fragment fan-out serialises on the user's uplinks and the
  // simulated completion time stretches accordingly.
  const double bandwidth = static_cast<double>(state.range(0)) / 100.0;
  crypto::ChaCha20Rng rng(29);
  logm::WorkloadSpec spec;
  spec.records = 32;
  auto records = logm::generate_workload(spec, rng);
  audit::Cluster cluster(audit::Cluster::Options{
      logm::paper_schema(), 4, 1, logm::paper_partition(), /*seed=*/13,
      /*auditor_users=*/true});
  cluster.sim().set_link_bandwidth(bandwidth);
  net::SimTime start = cluster.sim().now();
  std::size_t logged = 0;
  for (auto _ : state) {
    for (const auto& rec : records) {
      cluster.user(0).log_record(cluster.sim(), rec.attrs,
                                 [&](std::optional<logm::Glsn> g) {
                                   logged += g.has_value();
                                 });
      cluster.run();
    }
  }
  state.counters["bandwidth_B_per_us"] = bandwidth;
  state.counters["sim_ms_total"] = benchmark::Counter(
      static_cast<double>(cluster.sim().now() - start) / 1000.0,
      benchmark::Counter::kAvgIterations);
  if (logged != state.iterations() * records.size()) {
    state.SkipWithError("records lost under bandwidth limit");
  }
}

void BM_CentralizedLogging(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  crypto::ChaCha20Rng rng(23);
  logm::WorkloadSpec spec;
  spec.records = batch;
  auto records = logm::generate_workload(spec, rng);
  for (auto _ : state) {
    baseline::CentralizedAuditor auditor(logm::paper_schema());
    for (const auto& rec : records) auditor.log(rec);
    benchmark::DoNotOptimize(auditor.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
  state.counters["msgs/record"] = 1;
}

// SHA-256 of range(0) random bytes, on the kernel chosen for this CPU.
void BM_Sha256(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  crypto::ChaCha20Rng rng(31);
  rng.fill(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

// The ticket check an owner runs on every fragment upload: the MAC over the
// ticket text, compared in constant time, plus the operation lookup.
void BM_TicketAuthorize(benchmark::State& state) {
  const audit::TicketService tickets(audit::ClusterConfig{}.ticket_key);
  const audit::Ticket ticket = tickets.issue(
      "BENCH0", "u0", {logm::Op::Read, logm::Op::Write, logm::Op::Delete},
      /*auditor=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tickets.authorizes(ticket, logm::Op::Write, /*now=*/0));
  }
}

// One WAL put frame, a paper-schema record's fragment, appended to a log
// held open as SegmentEngine holds wal.log. The log is emptied every 4096
// frames, as a seal would, to keep the file small.
void BM_WalAppend(benchmark::State& state) {
  namespace fs = std::filesystem;
  crypto::ChaCha20Rng rng(37);
  logm::WorkloadSpec spec;
  spec.records = 1;
  const logm::LogRecord record = logm::generate_workload(spec, rng).front();
  net::Writer w;
  logm::paper_partition().fragment(record).front().encode(w);
  const net::Bytes payload = w.bytes();
  const fs::path path = fs::temp_directory_path() /
                        ("dla_bench_wal_" + std::to_string(::getpid()));
  std::ofstream log(path, std::ios::binary | std::ios::trunc);
  std::size_t frames = 0;
  for (auto _ : state) {
    logm::walio::append_frame(log, logm::walio::kOpPut, payload);
    if (++frames % 4096 == 0) {
      log.close();
      log.open(path, std::ios::binary | std::ios::trunc);
    }
  }
  log.close();
  fs::remove(path);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size() + 9));
  state.counters["payload_B"] = static_cast<double>(payload.size());
}

}  // namespace

BENCHMARK(BM_DlaLogging)
    ->Unit(benchmark::kMillisecond)
    ->Args({2, 64})
    ->Args({4, 64})
    ->Args({6, 64})
    ->Args({8, 64})
    ->Args({4, 256});

// range(0)/100 = bytes/us: 0.1 B/us (~0.8 Mbps), 1 B/us, 10 B/us (~80 Mbps).
BENCHMARK(BM_DlaLoggingBandwidthLimited)
    ->Unit(benchmark::kMillisecond)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000);

BENCHMARK(BM_CentralizedLogging)->Unit(benchmark::kMillisecond)->Arg(64)->Arg(256);

BENCHMARK(BM_Sha256)->Unit(benchmark::kMicrosecond)->Arg(64)->Arg(4800);
BENCHMARK(BM_TicketAuthorize)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WalAppend)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
