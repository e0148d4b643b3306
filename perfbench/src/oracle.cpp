#include "oracle.hpp"

#include <algorithm>
#include <cmath>

#include "audit/local_query.hpp"
#include "audit/query.hpp"
#include "logm/workload.hpp"

namespace perfbench {

using dla::logm::Glsn;

Oracle::Oracle(const Inputs& inputs, const std::vector<Glsn>& preload,
               const std::vector<OpRecord>& records)
    : inputs_(inputs) {
  for (std::size_t i = 0; i < preload.size(); ++i) {
    Info& info = info_[preload[i]];
    info.attrs = &inputs.preload[i].attrs;
    info.preload = true;
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Op& op = inputs.ops[i];
    const OpRecord& rec = records[i];
    if (op.kind != OpKind::Write || !rec.glsn) continue;
    Info& info = info_[*rec.glsn];
    info.attrs = &op.attrs;
    info.w_issued = rec.sim_issued;
    info.w_done = rec.sim_done;
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    const OpRecord& rec = records[i];
    if (inputs.ops[i].kind != OpKind::Delete || rec.wall_issued_ns == 0) {
      continue;
    }
    auto it = info_.find(rec.target_glsn);
    if (it == info_.end()) continue;
    it->second.deleted = true;
    it->second.d_ok = rec.done && rec.ok;
    it->second.d_issued = rec.sim_issued;
    it->second.d_done = rec.sim_done;
  }
  for (const auto& [glsn, info] : info_) {
    mirror_.put(dla::logm::Fragment{glsn, *info.attrs});
  }
}

const std::vector<Glsn>& Oracle::matches(const std::string& criterion) {
  auto it = match_cache_.find(criterion);
  if (it == match_cache_.end()) {
    dla::audit::Expr expr =
        dla::audit::parse(criterion, dla::logm::paper_schema());
    it = match_cache_
             .emplace(criterion, dla::audit::eval_local_scan(expr, mirror_))
             .first;
  }
  return it->second;
}

double Oracle::attr_value(Glsn glsn, const std::string& attr) const {
  const dla::logm::Value& v = info_.at(glsn).attrs->at(attr);
  return v.type() == dla::logm::ValueType::Int
             ? static_cast<double>(v.as_int())
             : v.as_real();
}

std::string Oracle::check_query(const OpRecord& q,
                                const std::string& criterion) {
  const std::vector<Glsn>& match = matches(criterion);
  for (Glsn g : q.result) {
    auto it = info_.find(g);
    if (it == info_.end()) {
      return "returned glsn " + std::to_string(g) + " that was never written";
    }
    if (!std::binary_search(match.begin(), match.end(), g)) {
      return "returned glsn " + std::to_string(g) + " that does not match";
    }
    const Info& info = it->second;
    if (!info.preload && info.w_issued > q.sim_done) {
      return "returned glsn " + std::to_string(g) +
             " whose write was issued after the query completed";
    }
    if (info.deleted && info.d_ok && info.d_done <= q.sim_issued) {
      return "returned glsn " + std::to_string(g) +
             " deleted before the query was issued";
    }
  }
  for (Glsn g : match) {
    const Info& info = info_.at(g);
    const bool must = (info.preload || info.w_done <= q.sim_issued) &&
                      !(info.deleted && info.d_issued <= q.sim_done);
    if (must && !std::binary_search(q.result.begin(), q.result.end(), g)) {
      return "missing glsn " + std::to_string(g) +
             " whose write completed before the query was issued";
    }
  }
  return "";
}

std::string Oracle::check_aggregate(const OpRecord& q, const AggSpec& agg) {
  double lo = 0.0, hi = 0.0;
  std::uint64_t lo_n = 0, hi_n = 0;
  for (Glsn g : matches(agg.criterion)) {
    const Info& info = info_.at(g);
    const bool must = (info.preload || info.w_done <= q.sim_issued) &&
                      !(info.deleted && info.d_issued <= q.sim_done);
    const bool may = (info.preload || info.w_issued <= q.sim_done) &&
                     !(info.deleted && info.d_ok && info.d_done <= q.sim_issued);
    const double v =
        agg.op == dla::audit::AggOp::Count ? 1.0 : attr_value(g, agg.attr);
    if (must) {
      lo += v;
      ++lo_n;
    }
    if (may) {
      hi += v;
      ++hi_n;
    }
  }
  const double slack = 1e-6 * std::abs(hi) + 1e-6;
  if (q.agg_count < lo_n || q.agg_count > hi_n || q.agg_value < lo - slack ||
      q.agg_value > hi + slack) {
    return "aggregate " + std::to_string(q.agg_value) + "/" +
           std::to_string(q.agg_count) + " outside [" + std::to_string(lo) +
           "/" + std::to_string(lo_n) + ", " + std::to_string(hi) + "/" +
           std::to_string(hi_n) + "]";
  }
  return "";
}

std::vector<std::string> Oracle::check_ops(std::vector<OpRecord>& records) {
  std::vector<std::string> findings;
  std::map<Glsn, std::size_t> assigned;
  for (std::size_t i = 0; i < records.size(); ++i) {
    OpRecord& rec = records[i];
    const Op& op = inputs_.ops[i];
    std::string why;
    if (!rec.done) {
      why = "never completed";
    } else if (!rec.ok) {
      why = "refused by the service";
    } else {
      switch (op.kind) {
        case OpKind::Write:
          if (!assigned.emplace(*rec.glsn, i).second) {
            why = "glsn " + std::to_string(*rec.glsn) + " assigned twice";
          }
          break;
        case OpKind::Delete:
        case OpKind::Integrity:
          break;
        case OpKind::QueryLocal:
        case OpKind::QueryCross:
          why = check_query(rec, inputs_.criteria[op.pick].text);
          break;
        case OpKind::Aggregate:
          why = check_aggregate(rec, inputs_.aggregates[op.pick]);
          break;
      }
    }
    if (!why.empty()) {
      rec.wrong = true;
      findings.push_back("op " + std::to_string(i) + " (" +
                         op_name(op.kind) + ", session " +
                         std::to_string(op.session) + "): " + why);
    }
  }
  return findings;
}

std::string Oracle::check_final_query(const std::string& criterion,
                                      const std::vector<Glsn>& got) {
  std::vector<Glsn> want;
  for (Glsn g : matches(criterion)) {
    const Info& info = info_.at(g);
    if (!(info.deleted && info.d_ok)) want.push_back(g);
  }
  if (got == want) return "";
  return "probe '" + criterion + "' returned " + std::to_string(got.size()) +
         " glsns, mirror has " + std::to_string(want.size());
}

std::string Oracle::check_final_aggregate(const AggSpec& agg, double value,
                                          std::uint64_t count) {
  double want = 0.0;
  std::uint64_t want_n = 0;
  for (Glsn g : matches(agg.criterion)) {
    const Info& info = info_.at(g);
    if (info.deleted && info.d_ok) continue;
    want += agg.op == dla::audit::AggOp::Count ? 1.0 : attr_value(g, agg.attr);
    ++want_n;
  }
  if (count == want_n && std::abs(value - want) <= 1e-6 * std::abs(want) + 1e-6) {
    return "";
  }
  return "probe aggregate over '" + agg.criterion + "' = " +
         std::to_string(value) + "/" + std::to_string(count) + ", mirror " +
         std::to_string(want) + "/" + std::to_string(want_n);
}

}  // namespace perfbench
