#include "layers.hpp"

#include <algorithm>
#include <functional>

#include "audit/config.hpp"
#include "audit/local_query.hpp"
#include "audit/query.hpp"
#include "audit/ticket.hpp"
#include "bignum/montgomery.hpp"
#include "crypto/pohlig_hellman.hpp"
#include "logm/workload.hpp"
#include "net/frame.hpp"

namespace perfbench {

using namespace dla;

namespace {

// Runs `call` (which does `units` units of work) `reps` times as layer spans
// and returns the median time per unit in `scale` units of a nanosecond.
double median_per_unit(Tracer& tracer, std::int32_t parent,
                       const std::string& label, int reps, double units,
                       double scale, const std::function<void()>& call) {
  call();  // warm caches and lazily built tables
  std::vector<double> per_unit;
  for (int r = 0; r < reps; ++r) {
    const std::int32_t span = tracer.open("layer", label, r, parent);
    call();
    tracer.close(span);
    const Span& s = tracer.spans()[span];
    per_unit.push_back(static_cast<double>(s.end_ns - s.start_ns) / units /
                       scale);
  }
  std::nth_element(per_unit.begin(), per_unit.begin() + reps / 2,
                   per_unit.end());
  return per_unit[reps / 2];
}

}  // namespace

std::map<std::string, double> time_layers(
    const Inputs& in, const std::vector<logm::LogRecord>& live,
    const std::vector<net::Message>& frames, Tracer& tracer) {
  std::map<std::string, double> out;
  const std::int32_t phase = tracer.open("phase", "layers");

  // ---- audit / logm: the compiled local query engine on P1's column ----
  const logm::Schema schema = logm::paper_schema();
  const logm::AttributePartition partition = logm::paper_partition();
  const std::size_t p1 = partition.node_for("id");
  logm::FragmentStore store;
  for (const logm::LogRecord& rec : live) {
    store.put(partition.fragment(rec)[p1]);
  }
  for (const char* shape :
       {"equality", "range", "in_fan", "conjunction", "fallback"}) {
    auto it = std::find_if(in.criteria.begin(), in.criteria.end(),
                           [&](const Criterion& c) { return c.shape == shape; });
    const audit::Expr expr = audit::parse(it->text, schema);
    out[std::string("audit.local_query.") + shape + "_us"] = median_per_unit(
        tracer, phase, std::string("eval_local_indexed/") + shape, 31, 1.0,
        1e3, [&] { audit::eval_local_indexed(expr, store); });
  }

  // ---- crypto / bignum: the ring-pass cipher on the cluster's domain ----
  const crypto::PhDomain domain = audit::ClusterConfig{}.ph_domain;
  crypto::ChaCha20Rng rng("perfbench/layers/" + std::to_string(in.seed));
  const crypto::PhKey key = crypto::PhKey::generate(domain, rng);
  std::vector<bn::BigUInt> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back(crypto::encode_element(domain, "glsn-" + std::to_string(i)));
  }
  out["crypto.modexp_us"] = median_per_unit(
      tracer, phase, "PhKey::encrypt_batch", 31, 64.0, 1e3,
      [&] { key.encrypt_batch(batch); });

  const bn::MontgomeryContext ctx(domain.p);
  std::vector<std::uint64_t> a = ctx.to_mont(batch[0]);
  const std::vector<std::uint64_t> b = ctx.to_mont(batch[1]);
  std::vector<std::uint64_t> scratch(ctx.scratch_limbs());
  constexpr int kMuls = 20000;
  out["bignum.montmul_ns"] = median_per_unit(
      tracer, phase, "MontgomeryContext::mont_mul_raw", 31, kMuls, 1.0, [&] {
        for (int i = 0; i < kMuls; ++i) {
          ctx.mont_mul_raw(a.data(), b.data(), a.data(), scratch.data());
        }
      });

  const audit::TicketService tickets(audit::ClusterConfig{}.ticket_key);
  const audit::Ticket ticket = tickets.issue(
      "BENCH", "u0", {logm::Op::Read, logm::Op::Write}, /*auditor=*/true);
  constexpr int kVerifies = 500;
  int authorized = 0;
  out["crypto.ticket_verify_us"] = median_per_unit(
      tracer, phase, "TicketService::authorizes", 31, kVerifies, 1e3, [&] {
        for (int i = 0; i < kVerifies; ++i) {
          authorized += tickets.authorizes(ticket, logm::Op::Write, 0) ? 1 : 0;
        }
      });

  // ---- net: framing of real protocol messages ----
  std::vector<net::Message> parsed;
  parsed.reserve(frames.size());
  out["net.frame_ns_per_msg"] = median_per_unit(
      tracer, phase, "encode_frame+FrameParser", 31,
      static_cast<double>(std::max<std::size_t>(1, frames.size())), 1.0, [&] {
        net::FrameParser parser;
        parsed.clear();
        for (const net::Message& m : frames) {
          const net::Bytes wire = net::encode_frame(m);
          parser.feed(wire, parsed);
        }
      });
  if (parsed.size() != frames.size() || authorized == 0) {
    throw std::runtime_error("layer calls returned wrong results");
  }
  tracer.close(phase);
  return out;
}

}  // namespace perfbench
