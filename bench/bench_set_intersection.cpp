// E2 — secure set intersection (Figure 4) scaling: party count n, set size
// |S|, and Pohlig-Hellman prime width, against the plaintext intersection
// floor. Reported counters: simulated protocol messages and bytes.
//
// Expected shape (DESIGN.md): cost is dominated by n^2 * |S| modexps (each
// of the n circulating sets is encrypted by all n parties and decrypted
// once more), so runtime grows linearly in |S| for fixed n and roughly
// quadratically in n; the plaintext baseline is orders of magnitude below.
// The `--ringpipe` mode bypasses Google Benchmark and measures SIMULATED
// ring latency (deterministic, from the discrete-event clock) of the legacy
// monolithic ring vs the chunked pipelined ring under a link-bandwidth
// model, writing BENCH_ringpipe.json. With store-and-forward links the
// monolithic ring pays h full-set transmits end to end; the chunked ring
// overlaps them, approaching max(compute, transmit) per hop.
#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "audit/cluster.hpp"
#include "audit/metrics.hpp"
#include "bignum/montgomery.hpp"
#include "crypto/modexp_engine.hpp"
#include "crypto/pohlig_hellman.hpp"
#include "logm/workload.hpp"

using namespace dla;

namespace {

// Builds per-node sets with ~50% pairwise overlap.
std::vector<std::vector<std::string>> make_sets(std::size_t n,
                                                std::size_t size) {
  std::vector<std::vector<std::string>> sets(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < size; ++j) {
      bool shared = j < size / 2;
      sets[i].push_back(shared ? "shared-" + std::to_string(j)
                               : "own-" + std::to_string(i) + "-" +
                                     std::to_string(j));
    }
  }
  return sets;
}

void run_protocol(audit::Cluster& cluster, std::size_t n,
                  const std::vector<std::vector<std::string>>& sets,
                  audit::SessionId session) {
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<bn::BigUInt> elements;
    for (const auto& s : sets[i]) {
      elements.push_back(
          crypto::encode_element(cluster.config()->ph_domain, s));
    }
    cluster.dla(i).stage_set_input(session, std::move(elements));
  }
  audit::SetSpec spec;
  spec.session = session;
  spec.op = audit::SetOp::Intersect;
  for (std::size_t i = 0; i < n; ++i) {
    spec.participants.push_back(cluster.config()->dla_nodes[i]);
  }
  spec.collector = spec.participants[0];
  spec.observers = {spec.participants[0]};
  cluster.dla(0).start_set_protocol(cluster.sim(), spec);
  cluster.run();
}

// range(2) = ring chunk size (0 = legacy monolithic frames); range(3) =
// link bandwidth in bytes per simulated us (0 = latency model only). The
// chunk/bandwidth rows report the pipelined-vs-monolithic contrast in the
// deterministic sim_ms/op counter; wall time stays modexp-dominated.
void BM_SecureSetIntersection(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t size = static_cast<std::size_t>(state.range(1));
  const std::size_t chunk = static_cast<std::size_t>(state.range(2));
  const double bandwidth = static_cast<double>(state.range(3));
  auto sets = make_sets(n, size);
  audit::Cluster::Options opts{
      logm::paper_schema(), std::max<std::size_t>(n, 2), 0, std::nullopt,
      /*seed=*/1, false};
  opts.set_chunk_size = chunk;
  audit::Cluster cluster(std::move(opts));
  cluster.sim().set_link_bandwidth(bandwidth);
  std::size_t result_size = 0;
  cluster.dla(0).on_set_result =
      [&](audit::SessionId, std::vector<bn::BigUInt> r) {
        result_size = r.size();
      };
  audit::SessionId session = 1;
  cluster.sim().reset_stats();
  audit::reset_crypto_op_counters();
  net::SimTime sim_elapsed = 0;
  for (auto _ : state) {
    net::SimTime t0 = cluster.sim().now();
    run_protocol(cluster, n, sets, session++);
    sim_elapsed += cluster.sim().now() - t0;
  }
  audit::CryptoOpCounters ops = audit::crypto_op_counters();
  state.counters["parties"] = static_cast<double>(n);
  state.counters["set_size"] = static_cast<double>(size);
  state.counters["chunk"] = static_cast<double>(chunk);
  state.counters["result"] = static_cast<double>(result_size);
  state.counters["sim_ms/op"] = benchmark::Counter(
      static_cast<double>(sim_elapsed) / 1000.0,
      benchmark::Counter::kAvgIterations);
  state.counters["msgs/op"] = benchmark::Counter(
      static_cast<double>(cluster.sim().stats().messages_sent),
      benchmark::Counter::kAvgIterations);
  state.counters["bytes/op"] = benchmark::Counter(
      static_cast<double>(cluster.sim().stats().bytes_sent),
      benchmark::Counter::kAvgIterations);
  state.counters["modexp/op"] = benchmark::Counter(
      static_cast<double>(ops.modexp_count), benchmark::Counter::kAvgIterations);
  state.counters["batches/op"] = benchmark::Counter(
      static_cast<double>(ops.modexp_batch_count),
      benchmark::Counter::kAvgIterations);
  // Element throughput of the whole protocol (n sets of `size` elements per
  // iteration): the before/after figure for the batched engine.
  state.counters["elem/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * n * size),
      benchmark::Counter::kIsRate);
}

void BM_PlaintextIntersection(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t size = static_cast<std::size_t>(state.range(1));
  auto sets = make_sets(n, size);
  for (auto _ : state) {
    std::set<std::string> acc(sets[0].begin(), sets[0].end());
    for (std::size_t i = 1; i < n; ++i) {
      std::set<std::string> next(sets[i].begin(), sets[i].end());
      std::set<std::string> merged;
      for (const auto& s : acc) {
        if (next.contains(s)) merged.insert(s);
      }
      acc = std::move(merged);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.counters["parties"] = static_cast<double>(n);
  state.counters["set_size"] = static_cast<double>(size);
}

// The 512-bit safe prime PhDomain::generate draws from ChaCha20Rng(5).
// Written out because generating it takes ~20 s, which every 512-bit row
// and the `ctest -L bench` smoke runs would pay before any timing.
crypto::PhDomain ph_domain_512() {
  return crypto::PhDomain{bn::BigUInt::from_hex(
      "ff08276bbadea3a80c6a1200338a0d5b2d8eb2dd6586cb4252c135c300efc72f"
      "dce8f0396b79e09e97e797bd11c70dc9d5a649c5b323341bce7fd52eaaa6785b")};
}

// The domain of a `bits`-wide row: the written-out 256- and 512-bit primes,
// any other width generated from `rng`.
crypto::PhDomain ph_domain(std::size_t bits, crypto::ChaCha20Rng& rng) {
  if (bits == 256) return crypto::PhDomain::fixed256();
  if (bits == 512) return ph_domain_512();
  return crypto::PhDomain::generate(rng, bits);
}

// Raw commutative-encryption throughput across prime widths: the knob that
// scales the whole protocol.
void BM_PohligHellmanEncrypt(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  crypto::ChaCha20Rng rng(5);
  crypto::PhDomain domain = ph_domain(bits, rng);
  crypto::PhKey key = crypto::PhKey::generate(domain, rng);
  bn::BigUInt m = crypto::encode_element(domain, "element");
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.encrypt(m));
  }
  state.counters["prime_bits"] = static_cast<double>(bits);
  state.counters["elem/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

// Batched commutative encryption: one ring hop's worth of elements through
// PhKey::encrypt_batch. Contrast elem/s here against BM_PohligHellmanEncrypt
// (the serial path) for the engine's amortization + fan-out win.
void BM_PohligHellmanEncryptBatch(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  const std::size_t count = static_cast<std::size_t>(state.range(1));
  crypto::ChaCha20Rng rng(5);
  crypto::PhDomain domain = ph_domain(bits, rng);
  crypto::PhKey key = crypto::PhKey::generate(domain, rng);
  std::vector<bn::BigUInt> base(count);
  for (std::size_t i = 0; i < count; ++i) {
    base[i] = crypto::encode_element(domain, "element-" + std::to_string(i));
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<bn::BigUInt> elements = base;
    state.ResumeTiming();
    key.encrypt_batch(elements);
    benchmark::DoNotOptimize(elements);
  }
  state.counters["prime_bits"] = static_cast<double>(bits);
  state.counters["batch"] = static_cast<double>(count);
  state.counters["threads"] =
      static_cast<double>(crypto::ModExpEngine::batch_threads());
  state.counters["elem/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * count),
      benchmark::Counter::kIsRate);
}

// One lane multiply (a * b) or square (a^2) at 256 bits (K = 5 limbs of 52
// bits) over range(0) groups of eight lanes, each call on the previous
// call's output as in a modexp's chain of steps: the dependent latency that
// two groups in one instruction stream overlap. elem/s counts lanes.
template <bool kSquare>
void lane_step(benchmark::State& state) {
  using Ctx = bn::MontgomeryContext;
  const std::size_t groups = static_cast<std::size_t>(state.range(0));
  const Ctx ctx(crypto::PhDomain::fixed256().p);
  if (groups > ctx.lane_groups()) {
    state.SkipWithError("the CPU or the modulus runs fewer lane groups");
    return;
  }
  crypto::ChaCha20Rng rng(13);
  std::vector<bn::BigUInt> values(Ctx::kLanes);
  for (bn::BigUInt& v : values) {
    v = bn::BigUInt::random_below(rng, ctx.modulus());
  }
  const std::size_t group_words = ctx.lane_limbs() * Ctx::kLanes;
  std::vector<std::uint64_t> acc(groups * group_words);
  for (std::size_t g = 0; g < groups; ++g) {
    ctx.to_lanes_raw(values.data(), Ctx::kLanes, acc.data() + g * group_words);
  }
  const std::vector<std::uint64_t> b = acc;
  for (auto _ : state) {
    if constexpr (kSquare) {
      ctx.lane_sqr_raw(acc.data(), acc.data(), groups);
    } else {
      ctx.lane_mul_raw(acc.data(), b.data(), acc.data(), groups);
    }
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  state.counters["groups"] = static_cast<double>(groups);
  state.counters["elem/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * groups * Ctx::kLanes),
      benchmark::Counter::kIsRate);
}

void BM_LaneMul(benchmark::State& state) { lane_step<false>(state); }
void BM_LaneSqr(benchmark::State& state) { lane_step<true>(state); }

// The modular inverses the query path pays. range(0) = 0, 1: d = e^-1 mod
// p - 1 for a fresh odd session exponent e over the 256-bit (fixed256) and
// 512-bit domains, once per ring session and node. range(0) = 2, 3: the
// threshold-signing Lagrange denominators 2 and q - 1 mod q, q = (p - 1) / 2
// of fixed256, which a gateway inverts for the signer set {1, 2, 3}.
void BM_ModInverse(benchmark::State& state) {
  const bn::BigUInt one(1);
  const bn::BigUInt p256 = crypto::PhDomain::fixed256().p;
  const bn::BigUInt q = (p256 - one) >> 1;
  bn::BigUInt m;
  std::vector<bn::BigUInt> inputs;
  switch (state.range(0)) {
    case 0:
    case 1: {
      m = (state.range(0) == 0 ? p256 : ph_domain_512().p) - one;
      crypto::ChaCha20Rng rng(7);
      for (int i = 0; i < 64; ++i) {
        bn::BigUInt e = bn::BigUInt::random_below(rng, m);
        inputs.push_back(e.is_odd() ? e : e + one);  // < m, as m is even
      }
      state.SetLabel(state.range(0) == 0 ? "odd e mod p-1, 256-bit"
                                         : "odd e mod p-1, 512-bit");
      break;
    }
    case 2:
      m = q;
      inputs = {bn::BigUInt(2)};
      state.SetLabel("2 mod q");
      break;
    default:
      m = q;
      inputs = {q - one};
      state.SetLabel("q-1 mod q");
      break;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bn::BigUInt::modinv(inputs[i], m));
    if (++i == inputs.size()) i = 0;
  }
}

// One node's key pair for one ring session: PhKey::generate draws e until
// e^-1 mod p - 1 exists, then builds the window schedules of e and d over
// the domain's Montgomery context.
void BM_PohligHellmanKeygen(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  const crypto::PhDomain domain =
      bits == 256 ? crypto::PhDomain::fixed256() : ph_domain_512();
  crypto::ChaCha20Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::PhKey::generate(domain, rng));
  }
  state.counters["prime_bits"] = static_cast<double>(bits);
}

// --------------------------------------------------- --ringpipe mode -----

struct RingpipeRun {
  net::SimTime sim_us = 0;
  std::vector<bn::BigUInt> result;
};

// One protocol run on a fresh cluster (fixed seed, so ciphertexts — and
// therefore results — are comparable across chunk settings), returning the
// simulated start-to-result latency.
RingpipeRun ringpipe_once(std::size_t n, std::size_t size, std::size_t chunk,
                          double bandwidth, audit::SetOp op) {
  audit::Cluster::Options opts{
      logm::paper_schema(), std::max<std::size_t>(n, 2), 0, std::nullopt,
      /*seed=*/1, false};
  opts.set_chunk_size = chunk;
  audit::Cluster cluster(std::move(opts));
  cluster.sim().set_link_bandwidth(bandwidth);
  auto sets = make_sets(n, size);
  RingpipeRun out;
  bool done = false;
  cluster.dla(0).on_set_result =
      [&](audit::SessionId, std::vector<bn::BigUInt> r) {
        out.sim_us = cluster.sim().now();
        out.result = std::move(r);
        done = true;
      };
  audit::SetSpec spec;
  spec.session = 1;
  spec.op = op;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<bn::BigUInt> elements;
    for (const auto& s : sets[i]) {
      elements.push_back(
          crypto::encode_element(cluster.config()->ph_domain, s));
    }
    cluster.dla(i).stage_set_input(spec.session, std::move(elements));
    spec.participants.push_back(cluster.config()->dla_nodes[i]);
  }
  spec.collector = spec.participants[0];
  spec.observers = {spec.participants[0]};
  net::SimTime t0 = cluster.sim().now();
  cluster.dla(0).start_set_protocol(cluster.sim(), spec);
  cluster.run();
  if (!done) {
    std::cerr << "FATAL: ringpipe protocol did not complete (n=" << n
              << " size=" << size << " chunk=" << chunk << ")\n";
    std::exit(1);
  }
  out.sim_us -= t0;
  return out;
}

// Pipelined-vs-monolithic simulated latency under a bandwidth-bound link
// model.
//
// Where the win comes from: the encrypt ring keeps every directed link
// loaded with one full stream per hop slot (n streams x n hops over n
// links), so its makespan is byte-bound regardless of framing. The decrypt
// pass, by contrast, is a SINGLE stream crossing n links in sequence — the
// monolithic ring pays n full transmits end to end while the chunked ring
// overlaps them across hops. The overall speedup therefore grows with the
// decrypt share of total bytes: union results (large combined sets) and
// wider rings are where the >= 1.5x acceptance bar is asserted; for every
// row we still require bit-identical results and no regression.
//
// Returns the number of failures: any result mismatch, any row where the
// pipelined ring regresses (> 10% slower), or the peak speedup across the
// sweep missing the 1.5x latency target.
int run_ringpipe(bool smoke, const std::string& json_path) {
  // 2 bytes/us with ~40-byte elements makes a 128-element frame cost
  // ~2.5ms of transmit against 100us propagation: firmly bandwidth-bound.
  constexpr double kBandwidth = 2.0;
  constexpr std::size_t kChunk = 16;
  struct Config {
    std::size_t n, size;
  };
  std::vector<Config> configs = {{5, 128}};
  if (!smoke) configs.insert(configs.end(), {{3, 128}, {5, 256}, {3, 512}});
  int failures = 0;
  double best_speedup = 0.0;
  std::ostringstream json;
  json << "[\n";
  bool first_row = true;
  for (audit::SetOp op : {audit::SetOp::Intersect, audit::SetOp::Union}) {
    const char* op_name = op == audit::SetOp::Intersect ? "intersect" : "union";
    for (const Config& c : configs) {
      RingpipeRun mono = ringpipe_once(c.n, c.size, 0, kBandwidth, op);
      RingpipeRun piped = ringpipe_once(c.n, c.size, kChunk, kBandwidth, op);
      if (mono.result != piped.result) {
        std::cerr << "FATAL: " << op_name << " n=" << c.n << " size=" << c.size
                  << ": chunked result differs from monolithic\n";
        ++failures;
      }
      double speedup = piped.sim_us > 0
                           ? static_cast<double>(mono.sim_us) /
                                 static_cast<double>(piped.sim_us)
                           : 0.0;
      best_speedup = std::max(best_speedup, speedup);
      if (speedup < 0.9) {
        std::cerr << "FAIL: " << op_name << " n=" << c.n << " size=" << c.size
                  << ": pipelined ring regressed (speedup " << speedup
                  << ")\n";
        ++failures;
      }
      if (!first_row) json << ",\n";
      first_row = false;
      json << "  {\"experiment\": \"ringpipe\", \"op\": \"" << op_name
           << "\", \"parties\": " << c.n << ", \"set_size\": " << c.size
           << ", \"chunk\": " << kChunk
           << ", \"bandwidth_bytes_per_us\": " << kBandwidth
           << ", \"mono_sim_us\": " << mono.sim_us
           << ", \"pipelined_sim_us\": " << piped.sim_us
           << ", \"result_size\": " << piped.result.size()
           << ", \"speedup\": " << speedup << "}";
      std::cout << "ringpipe " << op_name << " n=" << c.n
                << " size=" << c.size << ": mono=" << mono.sim_us
                << "us pipelined=" << piped.sim_us << "us speedup=" << speedup
                << "\n";
    }
  }
  json << "\n]\n";
  if (best_speedup < 1.5) {
    std::cerr << "FAIL: peak pipelined speedup " << best_speedup
              << " misses the 1.5x acceptance bar\n";
    ++failures;
  }
  std::ofstream out(json_path);
  out << json.str();
  std::cout << "wrote " << json_path << " (peak speedup " << best_speedup
            << ")\n";
  return failures;
}

}  // namespace

BENCHMARK(BM_SecureSetIntersection)
    ->Unit(benchmark::kMillisecond)
    ->Args({3, 8, 64, 0})
    ->Args({3, 32, 64, 0})
    ->Args({3, 128, 64, 0})
    ->Args({3, 1024, 64, 0})
    ->Args({5, 32, 64, 0})
    ->Args({9, 32, 64, 0})
    ->Args({13, 32, 64, 0})
    // Pipelined vs monolithic under a bandwidth-bound link model: compare
    // the deterministic sim_ms/op counter between these rows.
    ->Args({3, 128, 0, 2})
    ->Args({3, 128, 16, 2});

BENCHMARK(BM_PlaintextIntersection)
    ->Args({3, 32})
    ->Args({9, 32})
    ->Args({3, 128});

BENCHMARK(BM_PohligHellmanEncrypt)->Arg(128)->Arg(256)->Arg(512);

// 64 elements is the ring's chunk size; 16 is two lane groups.
BENCHMARK(BM_PohligHellmanEncryptBatch)
    ->Unit(benchmark::kMillisecond)
    ->Args({256, 16})
    ->Args({256, 64})
    ->Args({256, 128})
    ->Args({256, 1024})
    ->Args({512, 128});

BENCHMARK(BM_LaneMul)->Arg(1)->Arg(2);
BENCHMARK(BM_LaneSqr)->Arg(1)->Arg(2);

BENCHMARK(BM_ModInverse)->Unit(benchmark::kMicrosecond)->DenseRange(0, 3);

BENCHMARK(BM_PohligHellmanKeygen)
    ->Unit(benchmark::kMicrosecond)
    ->Arg(256)
    ->Arg(512);

int main(int argc, char** argv) {
  bool ringpipe = false;
  bool smoke = false;
  std::string json_path = "BENCH_ringpipe.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ringpipe") == 0) ringpipe = true;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  if (ringpipe) return run_ringpipe(smoke, json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
