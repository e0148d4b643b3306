// Plaintext correctness oracle for a benchmark round.
//
// A mirror of every acked write and delete, with their simulated issue and
// completion times, bounds what each concurrent result may contain (the
// traffic harness's bounds, see src/audit/traffic_harness.hpp):
//   * a query must include every matching record whose write completed
//     before the query was issued and that no delete could have touched;
//   * it must exclude glsns that were never written, records that do not
//     match, records deleted before it was issued, and records whose write
//     was issued only after it completed;
//   * an aggregate must lie between the value over the records it must see
//     and the value over the records it may see;
//   * integrity audits, writes and deletes must report success.
// After the drain, probe results must equal the mirror exactly.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "logm/store.hpp"
#include "workload.hpp"

namespace perfbench {

class Oracle {
 public:
  Oracle(const Inputs& inputs, const std::vector<dla::logm::Glsn>& preload,
         const std::vector<OpRecord>& records);

  // Checks every op; sets OpRecord::wrong and returns one line per finding.
  std::vector<std::string> check_ops(std::vector<OpRecord>& records);

  // Exact post-drain checks; empty string when the result is right.
  std::string check_final_query(const std::string& criterion,
                                const std::vector<dla::logm::Glsn>& got);
  std::string check_final_aggregate(const AggSpec& agg, double value,
                                    std::uint64_t count);

 private:
  struct Info {
    const std::map<std::string, dla::logm::Value>* attrs = nullptr;
    bool preload = false;
    std::uint64_t w_issued = 0, w_done = 0;
    bool deleted = false;  // a delete was issued for this glsn
    bool d_ok = false;
    std::uint64_t d_issued = 0, d_done = 0;
  };

  const std::vector<dla::logm::Glsn>& matches(const std::string& criterion);
  std::string check_query(const OpRecord& q, const std::string& criterion);
  std::string check_aggregate(const OpRecord& q, const AggSpec& agg);
  double attr_value(dla::logm::Glsn glsn, const std::string& attr) const;

  const Inputs& inputs_;
  std::map<dla::logm::Glsn, Info> info_;
  dla::logm::FragmentStore mirror_;  // full records, every glsn ever acked
  std::map<std::string, std::vector<dla::logm::Glsn>> match_cache_;
};

}  // namespace perfbench
