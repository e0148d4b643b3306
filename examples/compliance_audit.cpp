// Transaction-compliance auditing with durable storage — exercises the
// R_T specification checking of Eqs. (1)-(2) ("verify the conformance of
// system states with transaction specifications"), confidential
// aggregates, and the durable segment store.
//
// Scenario: a payment processor logs settlement transactions into the DLA
// cluster. The compliance rules R_T:
//   r0: every event carries a non-negative amount        (PerEventCriterion)
//   r1: events of a transaction are time-ordered         (EventOrder)
//   r2: both counterparties appear on the record         (DistinctParties)
//   r3: no replayed events                               (NoDuplicateEvents)
// The auditor finds the violating transactions, pulls confidential
// aggregates for the quarterly report, and the DLA node's storage survives
// a simulated crash via its sealed segments and write-ahead log.
#include <filesystem>
#include <iostream>
#include <optional>

#include "audit/cluster.hpp"
#include "audit/transaction_audit.hpp"
#include "logm/storage_engine.hpp"
#include "logm/workload.hpp"

using namespace dla;

int main() {
  std::cout << "== transaction compliance audit ==\n\n";

  // --- build a day of settlements, with two seeded violations ------------
  crypto::ChaCha20Rng rng(777);
  logm::WorkloadSpec spec;
  spec.records = 150;
  spec.users = 4;
  spec.transactions = 30;
  auto records = logm::generate_workload(spec, rng);
  // Violation 1: a negative amount sneaks into transaction T3.
  for (auto& rec : records) {
    if (rec.attrs.at("Tid").as_text() == "T3") {
      rec.attrs["C2"] = logm::Value(-250.0);
      break;
    }
  }
  // Violation 2: an out-of-order (backdated) event in T5.
  bool backdated = false;
  for (auto& rec : records) {
    if (!backdated && rec.attrs.at("Tid").as_text() == "T5") {
      backdated = true;  // skip the first T5 event
      continue;
    }
    if (backdated && rec.attrs.at("Tid").as_text() == "T5") {
      rec.attrs["Time"] = logm::Value(std::int64_t{1});
      break;
    }
  }

  // --- R_T conformance over the grouped transactions ---------------------
  auto txns = logm::group_into_transactions(records);
  audit::TransactionAuditor auditor(
      logm::paper_schema(),
      {audit::PerEventCriterion{"C2 >= 0.0"},
       audit::EventOrder{"Time", false},
       audit::DistinctParties{1},
       audit::NoDuplicateEvents{}});
  auto violations = auditor.find_violations(txns);
  std::cout << "audited " << txns.size() << " transactions against 4 rules; "
            << violations.size() << " non-conforming:\n";
  for (const auto& report : violations) {
    for (const auto& v : report.verdicts) {
      if (!v.satisfied) {
        std::cout << "  tsn " << report.tsn << ": rule " << v.rule_index
                  << " — " << v.detail << "\n";
      }
    }
  }

  // --- confidential aggregates for the quarterly report ------------------
  audit::Cluster cluster(audit::Cluster::Options{
      logm::paper_schema(), 4, 1, logm::paper_partition(), /*seed=*/5,
      /*auditor_users=*/true, /*certify_reports=*/true});
  for (const auto& rec : records) {
    cluster.user(0).log_record(cluster.sim(), rec.attrs,
                               [](std::optional<logm::Glsn>) {});
  }
  cluster.run();
  auto aggregate = [&](const std::string& label, const std::string& criterion,
                       audit::AggOp op, const std::string& attr) {
    cluster.user(0).aggregate_query(
        cluster.sim(), criterion, op, attr,
        [label](audit::AggregateOutcome o) {
          std::cout << "  " << label << " = "
                    << (o.ok ? std::to_string(o.value) : o.error) << "\n";
        });
    cluster.run();
  };
  std::cout << "\nquarterly statistics (no raw record ever leaves its node):\n";
  aggregate("settlement volume (all)", "Time > 0", audit::AggOp::Sum, "C2");
  aggregate("negative-amount events", "C2 < 0.0", audit::AggOp::Count, "");
  aggregate("largest settlement", "Time > 0", audit::AggOp::Max, "C2");

  // --- durable storage: P1's segment engine survives a crash -------------
  namespace fs = std::filesystem;
  auto dir = fs::temp_directory_path() / "dla_compliance_example";
  fs::remove_all(dir);
  logm::SegmentEngine::Options opts;
  opts.memtable_max_records = 32;  // seal often: segments plus a WAL tail
  opts.auto_compact = false;       // compaction runs explicitly below
  {
    logm::SegmentEngine durable(dir.string(), opts);
    cluster.dla(1).store().for_each(
        [&](const logm::Fragment& f) { durable.put(f); });
    std::cout << "\nP1 persisted " << durable.size() << " fragments ("
              << durable.segments().size() << " sealed segments, "
              << durable.memtable().size() << " in its WAL)\n";
  }  // "crash": the engine object is gone
  {
    logm::SegmentEngine recovered(dir.string(), opts);
    std::cout << "after restart P1 recovered " << recovered.size()
              << " fragments\n";
    const std::size_t merges = recovered.compact();
    std::cout << "compaction ran " << merges << " merge(s), leaving "
              << recovered.segments().size() << " segment(s) with "
              << recovered.size() << " fragments\n";
  }
  fs::remove_all(dir);
  return 0;
}
