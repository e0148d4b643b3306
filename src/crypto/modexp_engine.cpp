#include "crypto/modexp_engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

namespace dla::crypto {

namespace {

using u64 = std::uint64_t;

std::atomic<std::uint64_t> g_modexp_count{0};
std::atomic<std::uint64_t> g_modexp_batch_count{0};
std::atomic<std::size_t> g_thread_override{0};  // 0 = auto

// Elements below which a batch is not worth fanning out: a chunk must
// amortize the enqueue/wake handshake over enough exponentiations (about
// 2 us per element in 8-lane groups at 256 bits, ~8 us on the scalar
// kernel).
constexpr std::size_t kMinChunkElements = 16;

// Odd powers in the widest sliding window the constructor picks (5 bits).
constexpr std::size_t kMaxTableEntries = 16;

// Words in the widest lane value pow_lanes runs: one group of the widest
// lane limb count, or two groups of the widest that runs two.
constexpr std::size_t kMaxLaneWidth =
    std::max(bn::MontgomeryContext::kMaxLaneLimbs,
             2 * bn::MontgomeryContext::kMaxTwoGroupLimbs) *
    bn::MontgomeryContext::kLanes;

std::size_t auto_thread_count() {
  if (const char* env = std::getenv("DLA_MODEXP_THREADS")) {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && v > 0) return static_cast<std::size_t>(v);
  }
  std::size_t hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 8);
}

// A lazily-started pool of detached-on-shutdown workers shared by every
// engine in the process. parallel_for blocks the calling thread until all
// chunks finish, so actor handlers that batch stay run-to-completion.
class WorkerPool {
 public:
  static WorkerPool& instance() {
    static WorkerPool pool;
    return pool;
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  void parallel_for(std::size_t count, std::size_t max_chunks,
                    const std::function<void(std::size_t, std::size_t)>& body) {
    std::size_t chunks =
        std::min(max_chunks, std::max<std::size_t>(count / kMinChunkElements, 1));
    if (chunks <= 1) {
      body(0, count);
      return;
    }
    ensure_workers(chunks - 1);

    struct Join {
      std::mutex mu;
      std::condition_variable done;
      std::size_t remaining;
      std::exception_ptr error;
    } join{.mu = {}, .done = {}, .remaining = chunks - 1, .error = nullptr};

    const std::size_t per = count / chunks;
    const std::size_t extra = count % chunks;
    auto bounds = [&](std::size_t c) {
      std::size_t begin = c * per + std::min(c, extra);
      std::size_t len = per + (c < extra ? 1 : 0);
      return std::pair<std::size_t, std::size_t>(begin, len);
    };
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t c = 1; c < chunks; ++c) {
        auto [begin, len] = bounds(c);
        tasks_.push_back([&join, &body, begin, len] {
          try {
            body(begin, len);
          } catch (...) {
            std::lock_guard<std::mutex> jl(join.mu);
            if (!join.error) join.error = std::current_exception();
          }
          // Notify while still holding join.mu: the waiter owns `join` on
          // its stack and destroys it as soon as it observes remaining == 0,
          // so an unlocked notify could touch a dead condition_variable.
          std::lock_guard<std::mutex> jl(join.mu);
          --join.remaining;
          join.done.notify_one();
        });
      }
    }
    cv_.notify_all();
    auto [begin0, len0] = bounds(0);
    body(begin0, len0);  // the caller works too
    std::unique_lock<std::mutex> jl(join.mu);
    join.done.wait(jl, [&] { return join.remaining == 0; });
    if (join.error) std::rethrow_exception(join.error);
  }

 private:
  void ensure_workers(std::size_t wanted) {
    std::lock_guard<std::mutex> lock(mu_);
    while (workers_.size() < wanted) {
      workers_.emplace_back([this] { worker_main(); });
    }
  }

  void worker_main() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || !tasks_.empty(); });
        if (stop_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace

ModExpStats modexp_stats() {
  return ModExpStats{g_modexp_count.load(std::memory_order_relaxed),
                     g_modexp_batch_count.load(std::memory_order_relaxed)};
}

void reset_modexp_stats() {
  g_modexp_count.store(0, std::memory_order_relaxed);
  g_modexp_batch_count.store(0, std::memory_order_relaxed);
}

void ModExpEngine::set_batch_threads(std::size_t n) {
  g_thread_override.store(n, std::memory_order_relaxed);
}

std::size_t ModExpEngine::batch_threads() {
  std::size_t override = g_thread_override.load(std::memory_order_relaxed);
  if (override != 0) return override;
  static const std::size_t auto_count = auto_thread_count();
  return auto_count;
}

ModExpEngine::ModExpEngine(std::shared_ptr<const bn::MontgomeryContext> ctx,
                           bn::BigUInt exponent)
    : ctx_(std::move(ctx)), exponent_(std::move(exponent)) {
  if (!ctx_) throw std::invalid_argument("ModExpEngine: null context");
  const std::size_t bits = exponent_.bit_length();
  window_bits_ = bits >= 384 ? 5 : bits >= 32 ? 4 : bits >= 8 ? 3 : 2;
  table_entries_ = std::size_t{1} << (window_bits_ - 1);

  // Compile the sliding-window schedule once: scan MSB->LSB, emitting one
  // (squarings, odd-window) op per window and folding zero runs into the
  // next op's squaring count.
  std::size_t i = bits;  // 1-based cursor over bit indices
  std::uint32_t pending = 0;
  while (i > 0) {
    if (!exponent_.bit(i - 1)) {
      ++pending;
      --i;
      continue;
    }
    std::size_t low = i >= window_bits_ ? i - window_bits_ : 0;  // window floor
    while (!exponent_.bit(low)) ++low;                           // keep it odd
    std::uint32_t value = 0;
    for (std::size_t b = i; b-- > low;) {
      value = static_cast<std::uint32_t>((value << 1) |
                                         (exponent_.bit(b) ? 1u : 0u));
    }
    ops_.push_back(WindowOp{pending + static_cast<std::uint32_t>(i - low),
                            (value - 1) / 2});
    pending = 0;
    i = low;
  }
  tail_squarings_ = pending;
}

template <class Mul, class Sqr>
u64* ModExpEngine::replay(u64* ws, std::size_t width, const Mul& mul,
                          const Sqr& sqr) const {
  // Workspace: odd-power table | base^2 | accumulator.
  u64* table = ws;  // base^1 on entry
  u64* base2 = table + table_entries_ * width;
  u64* acc = base2 + width;
  if (table_entries_ > 1) {
    sqr(table, base2);
    for (std::size_t t = 1; t < table_entries_; ++t) {
      mul(table + (t - 1) * width, base2, table + t * width);
    }
  }
  // First window lands on an accumulator of 1: skip its squarings.
  std::copy_n(table + ops_[0].table_index * width, width, acc);
  for (std::size_t op = 1; op < ops_.size(); ++op) {
    for (std::uint32_t s = 0; s < ops_[op].squarings; ++s) sqr(acc, acc);
    mul(acc, table + ops_[op].table_index * width, acc);
  }
  for (std::uint32_t s = 0; s < tail_squarings_; ++s) sqr(acc, acc);
  return acc;
}

void ModExpEngine::pow_lanes(bn::BigUInt* first, std::size_t count) const {
  using Ctx = bn::MontgomeryContext;
  const Ctx& ctx = *ctx_;
  const std::size_t group_words = ctx.lane_limbs() * Ctx::kLanes;
  const std::size_t groups = (count + Ctx::kLanes - 1) / Ctx::kLanes;
  // Left uninitialised: replay writes each of the (table_entries_ + 2) *
  // width words it uses before reading it.
  std::array<u64, (kMaxTableEntries + 2) * kMaxLaneWidth> ws;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t begin = g * Ctx::kLanes;
    ctx.to_lanes_raw(first + begin, std::min(count - begin, Ctx::kLanes),
                     ws.data() + g * group_words);
  }
  const u64* acc = replay(
      ws.data(), groups * group_words,
      [&](const u64* a, const u64* b, u64* out) {
        ctx.lane_mul_raw(a, b, out, groups);
      },
      [&](const u64* a, u64* out) { ctx.lane_sqr_raw(a, out, groups); });
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t begin = g * Ctx::kLanes;
    ctx.from_lanes_raw(acc + g * group_words,
                       std::min(count - begin, Ctx::kLanes), first + begin);
  }
}

void ModExpEngine::pow_run(bn::BigUInt* first, std::size_t count) const {
  const bn::MontgomeryContext& ctx = *ctx_;
  const std::size_t n = ctx.limb_count();
  if (ops_.empty()) {
    // exponent == 0
    for (std::size_t k = 0; k < count; ++k) {
      first[k] = bn::BigUInt(1) % ctx.modulus();
    }
    return;
  }
  std::size_t done = 0;
  if (ctx.lane_limbs() != 0) {
    // As many groups of eight as the context runs at once, the last one
    // padded: two groups while 9 or more bases remain, one for 2..8. A lone
    // base is cheaper on the scalar kernel.
    const std::size_t most = ctx.lane_groups() * bn::MontgomeryContext::kLanes;
    while (count - done >= 2) {
      const std::size_t run = std::min(count - done, most);
      pow_lanes(first + done, run);
      done += run;
    }
  }
  if (done == count) return;
  // One flat workspace, reused across the scalar elements: replay's values
  // then the REDC scratch.
  std::vector<u64> ws((table_entries_ + 2) * n + ctx.scratch_limbs());
  u64* scratch = ws.data() + (table_entries_ + 2) * n;
  for (std::size_t k = done; k < count; ++k) {
    ctx.to_mont_raw(first[k], ws.data(), scratch);  // base^1
    u64* acc = replay(
        ws.data(), n,
        [&](const u64* a, const u64* b, u64* out) {
          ctx.mont_mul_raw(a, b, out, scratch);
        },
        [&](const u64* a, u64* out) { ctx.mont_sqr_raw(a, out, scratch); });
    ctx.redc_raw(acc, acc, scratch);
    first[k] = bn::BigUInt::from_limbs(
        bn::MontgomeryContext::Limbs(acc, acc + n));
  }
}

bn::BigUInt ModExpEngine::pow(const bn::BigUInt& base) const {
  g_modexp_count.fetch_add(1, std::memory_order_relaxed);
  bn::BigUInt out = base;
  pow_run(&out, 1);
  return out;
}

void ModExpEngine::pow_batch(std::span<bn::BigUInt> bases) const {
  if (bases.empty()) return;
  g_modexp_count.fetch_add(bases.size(), std::memory_order_relaxed);
  g_modexp_batch_count.fetch_add(1, std::memory_order_relaxed);
  WorkerPool::instance().parallel_for(
      bases.size(), batch_threads(),
      [this, &bases](std::size_t begin, std::size_t len) {
        pow_run(bases.data() + begin, len);
      });
}

// ======================================================== fixed base =======

FixedBaseEngine::FixedBaseEngine(
    std::shared_ptr<const bn::MontgomeryContext> ctx, const bn::BigUInt& base,
    std::size_t max_exponent_bits)
    : ctx_(std::move(ctx)),
      base_(base),
      columns_(std::max<std::size_t>((max_exponent_bits + kTeeth - 1) / kTeeth,
                                     1)) {
  if (!ctx_) throw std::invalid_argument("FixedBaseEngine: null context");
  constexpr std::size_t kEntries = (std::size_t{1} << kTeeth) - 1;
  table_.resize(kEntries * ctx_->limb_count());
  std::vector<u64> scratch(ctx_->scratch_limbs());
  // The teeth: each row's is the one below it squared d times.
  ctx_->to_mont_raw(base_, entry(1), scratch.data());
  for (std::size_t j = 1; j < kTeeth; ++j) {
    u64* tooth = entry(std::size_t{1} << j);
    ctx_->mont_sqr_raw(entry(std::size_t{1} << (j - 1)), tooth,
                       scratch.data());
    for (std::size_t s = 1; s < columns_; ++s) {
      ctx_->mont_sqr_raw(tooth, tooth, scratch.data());
    }
  }
  // Every other entry is its highest tooth times the entry below it.
  for (std::size_t v = 3; v <= kEntries; ++v) {
    const std::size_t high = std::bit_floor(v);
    if (high == v) continue;
    ctx_->mont_mul_raw(entry(high), entry(v - high), entry(v), scratch.data());
  }
}

bn::BigUInt FixedBaseEngine::pow(const bn::BigUInt& exponent) const {
  g_modexp_count.fetch_add(1, std::memory_order_relaxed);
  if (exponent.bit_length() > max_exponent_bits()) {
    // Outside the comb's range (callers normally reduce exponents mod the
    // group order first): correctness over speed.
    return ctx_->pow(base_, exponent);
  }
  if (exponent.is_zero()) return bn::BigUInt(1) % ctx_->modulus();
  const std::vector<u64>& e = exponent.limbs();
  auto bit = [&e](std::size_t i) -> std::size_t {
    return i / 64 < e.size() ? (e[i / 64] >> (i % 64)) & 1 : 0;
  };
  const std::size_t n = ctx_->limb_count();
  std::vector<u64> ws(n + ctx_->scratch_limbs());
  u64* acc = ws.data();
  u64* scratch = acc + n;
  bool started = false;  // acc still 1: skip its squarings
  for (std::size_t c = columns_; c-- > 0;) {
    if (started) ctx_->mont_sqr_raw(acc, acc, scratch);
    std::size_t v = 0;
    for (std::size_t j = 0; j < kTeeth; ++j) v |= bit(j * columns_ + c) << j;
    if (v == 0) continue;
    if (started) {
      ctx_->mont_mul_raw(acc, entry(v), acc, scratch);
    } else {
      std::copy_n(entry(v), n, acc);
      started = true;
    }
  }
  ctx_->redc_raw(acc, acc, scratch);
  return bn::BigUInt::from_limbs(bn::MontgomeryContext::Limbs(acc, acc + n));
}

std::shared_ptr<const FixedBaseEngine> FixedBaseEngine::shared(
    const bn::BigUInt& base, const bn::BigUInt& modulus) {
  return shared(base, modulus, modulus.bit_length());
}

std::shared_ptr<const FixedBaseEngine> FixedBaseEngine::shared(
    const bn::BigUInt& base, const bn::BigUInt& modulus,
    std::size_t max_exponent_bits) {
  using Key = std::tuple<std::string, std::string, std::size_t>;
  using Entry = std::pair<Key, std::shared_ptr<const FixedBaseEngine>>;
  static std::mutex mu;
  // True LRU: a recency list (front = most recent) plus a map into it.
  // Clearing the whole cache on overflow evicted the hot generator/domain
  // engines every 17th distinct key, forcing their (expensive) table
  // rebuilds in steady state.
  static std::list<Entry> order;
  static std::map<Key, std::list<Entry>::iterator> index;
  constexpr std::size_t kCapacity = 16;
  Key key{base.to_hex(), modulus.to_hex(), max_exponent_bits};
  std::lock_guard<std::mutex> lock(mu);
  if (auto it = index.find(key); it != index.end()) {
    order.splice(order.begin(), order, it->second);  // mark most-recent
    return it->second->second;
  }
  auto engine = std::make_shared<const FixedBaseEngine>(
      std::make_shared<bn::MontgomeryContext>(modulus), base,
      max_exponent_bits);
  while (order.size() >= kCapacity) {
    index.erase(order.back().first);
    order.pop_back();
  }
  order.emplace_front(key, engine);
  index.emplace(std::move(key), order.begin());
  return engine;
}

}  // namespace dla::crypto
