// E5 — distributed integrity checking (Section 4.1): the one-way
// accumulator circulation against the conventional per-fragment RSA
// signature baseline [26].
//
// Expected shape: accumulator *verification* of one record costs n modexps
// with SHA-sized exponents (one per hop) and n ring messages, with no
// private key anywhere; the signature baseline pays one RSA private-key
// signature per fragment at write time (d ~ modulus-sized exponent, much
// slower) plus one public-key verification per fragment at check time.
// The accumulator wins on the write path and stays competitive on the
// verify path while never revealing fragments between nodes.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "audit/cluster.hpp"
#include "baseline/signature_integrity.hpp"
#include "crypto/accumulator.hpp"
#include "crypto/modexp_engine.hpp"
#include "logm/workload.hpp"

using namespace dla;

namespace {

std::vector<logm::LogRecord> workload(std::size_t records) {
  crypto::ChaCha20Rng rng(17);
  logm::WorkloadSpec spec;
  spec.records = records;
  return logm::generate_workload(spec, rng);
}

// Write-path cost: the user's deposit over all fragments of each record,
// as UserNode computes it (one fixed-base comb power of x0 through the
// accumulator handle the user builds once).
void BM_AccumulatorWrite(benchmark::State& state) {
  const std::size_t n_nodes = static_cast<std::size_t>(state.range(0));
  auto partition =
      logm::AttributePartition::round_robin(logm::paper_schema(), n_nodes);
  auto records = workload(16);
  const crypto::AccumulatorStepper stepper(
      crypto::Accumulator::Params::fixed256(), n_nodes);
  for (auto _ : state) {
    for (const auto& rec : records) {
      std::vector<std::string> items;
      for (const auto& frag : partition.fragment(rec)) {
        items.push_back(frag.canonical());
      }
      benchmark::DoNotOptimize(stepper.deposit(items));
    }
  }
  state.counters["nodes"] = static_cast<double>(n_nodes);
  state.counters["records"] = 16;
}

// One fixed-base power with an exponent as wide as the modulus, through the
// process-wide comb (the threshold-Schnorr nonce and Feldman shape).
void BM_FixedBasePow(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  crypto::ChaCha20Rng rng(29);
  bn::BigUInt m = bn::BigUInt::random_bits(rng, bits);
  if (m.is_even()) m += bn::BigUInt(1);
  auto comb = crypto::FixedBaseEngine::shared(
      bn::BigUInt::random_below(rng, m), m);
  std::vector<bn::BigUInt> exponents;
  for (int i = 0; i < 64; ++i) {
    exponents.push_back(bn::BigUInt::random_below(rng, m));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(comb->pow(exponents[i++ % exponents.size()]));
  }
}

void BM_SignatureWrite(benchmark::State& state) {
  const std::size_t n_nodes = static_cast<std::size_t>(state.range(0));
  auto partition =
      logm::AttributePartition::round_robin(logm::paper_schema(), n_nodes);
  auto records = workload(16);
  crypto::RsaKeyPair key = crypto::RsaKeyPair::fixed512();
  for (auto _ : state) {
    baseline::SignatureIntegrity integrity(key);
    for (const auto& rec : records) {
      auto frags = partition.fragment(rec);
      for (std::size_t i = 0; i < frags.size(); ++i) {
        integrity.sign_fragment(i, frags[i]);
      }
    }
  }
  state.counters["nodes"] = static_cast<double>(n_nodes);
  state.counters["records"] = 16;
}

// Verify path: the distributed circulation over the live cluster vs
// signature verification of all fragments.
void BM_AccumulatorVerifyDistributed(benchmark::State& state) {
  const std::size_t n_nodes = static_cast<std::size_t>(state.range(0));
  audit::Cluster cluster(audit::Cluster::Options{
      logm::paper_schema(), n_nodes, 1,
      logm::AttributePartition::round_robin(logm::paper_schema(), n_nodes),
      /*seed=*/5, /*auditor_users=*/true});
  std::vector<logm::Glsn> glsns;
  for (const auto& rec : workload(16)) {
    cluster.user(0).log_record(cluster.sim(), rec.attrs,
                               [&](std::optional<logm::Glsn> g) {
                                 if (g) glsns.push_back(*g);
                               });
  }
  cluster.run();
  bool ok = false;
  cluster.dla(0).on_integrity_result =
      [&](audit::SessionId, logm::Glsn, bool result) { ok = result; };
  audit::SessionId session = 1;
  cluster.sim().reset_stats();
  for (auto _ : state) {
    for (logm::Glsn g : glsns) {
      cluster.dla(0).start_integrity_check(cluster.sim(), session++, g);
      cluster.run();
    }
    if (!ok) {
      state.SkipWithError("integrity check failed on intact log");
      break;
    }
  }
  state.counters["nodes"] = static_cast<double>(n_nodes);
  state.counters["records"] = static_cast<double>(glsns.size());
  state.counters["msgs/op"] = benchmark::Counter(
      static_cast<double>(cluster.sim().stats().messages_sent),
      benchmark::Counter::kAvgIterations);
}

void BM_SignatureVerify(benchmark::State& state) {
  const std::size_t n_nodes = static_cast<std::size_t>(state.range(0));
  auto partition =
      logm::AttributePartition::round_robin(logm::paper_schema(), n_nodes);
  auto records = workload(16);
  crypto::RsaKeyPair key = crypto::RsaKeyPair::fixed512();
  baseline::SignatureIntegrity integrity(key);
  std::vector<std::vector<logm::Fragment>> all_frags;
  for (const auto& rec : records) {
    all_frags.push_back(partition.fragment(rec));
    for (std::size_t i = 0; i < all_frags.back().size(); ++i) {
      integrity.sign_fragment(i, all_frags.back()[i]);
    }
  }
  for (auto _ : state) {
    for (const auto& frags : all_frags) {
      if (!integrity.verify_all(frags)) {
        state.SkipWithError("signature verification failed");
        return;
      }
    }
  }
  state.counters["nodes"] = static_cast<double>(n_nodes);
  state.counters["records"] = static_cast<double>(records.size());
}

// Tamper-detection latency: how long until a corrupted fragment is caught.
void BM_AccumulatorTamperDetection(benchmark::State& state) {
  audit::Cluster cluster(audit::Cluster::Options{
      logm::paper_schema(), 4, 1, logm::paper_partition(), /*seed=*/6,
      /*auditor_users=*/true});
  std::vector<logm::Glsn> glsns;
  for (const auto& rec : workload(8)) {
    cluster.user(0).log_record(cluster.sim(), rec.attrs,
                               [&](std::optional<logm::Glsn> g) {
                                 if (g) glsns.push_back(*g);
                               });
  }
  cluster.run();
  // Corrupt one fragment on P2.
  logm::Fragment bad = *cluster.dla(2).store().get(glsns[3]);
  bad.attrs["Tid"] = logm::Value("FORGED");
  cluster.dla(2).store().put(bad);
  bool detected = false;
  cluster.dla(0).on_integrity_result =
      [&](audit::SessionId, logm::Glsn, bool ok) { detected = !ok; };
  audit::SessionId session = 1;
  for (auto _ : state) {
    detected = false;
    cluster.dla(0).start_integrity_check(cluster.sim(), session++, glsns[3]);
    cluster.run();
    if (!detected) {
      state.SkipWithError("tampering went undetected");
      break;
    }
  }
  state.counters["detected"] = detected ? 1 : 0;
}

}  // namespace

BENCHMARK(BM_AccumulatorWrite)->Unit(benchmark::kMillisecond)->Arg(4)->Arg(8);
BENCHMARK(BM_FixedBasePow)->Unit(benchmark::kMicrosecond)->Arg(256)->Arg(1024);
BENCHMARK(BM_SignatureWrite)->Unit(benchmark::kMillisecond)->Arg(4)->Arg(8);
BENCHMARK(BM_AccumulatorVerifyDistributed)
    ->Unit(benchmark::kMillisecond)
    ->Arg(4)
    ->Arg(8);
BENCHMARK(BM_SignatureVerify)->Unit(benchmark::kMillisecond)->Arg(4)->Arg(8);
BENCHMARK(BM_AccumulatorTamperDetection)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
