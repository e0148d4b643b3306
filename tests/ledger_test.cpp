// Tests for the tamper-evident audit ledger (docs/LEDGER.md): record codecs,
// append validation (interlock, equivocation, missing predecessors),
// settlement, whole-DAG verification, the frontier certifier, the networked
// LedgerPeer gossip under benign chaos, invariant I6's fault detection, and
// the at-least-once idempotence of the evidence/audit handlers.
#include "audit/ledger.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "audit/cluster.hpp"
#include "audit/invariants.hpp"
#include "audit/member_node.hpp"
#include "logm/workload.hpp"
#include "net/chaos.hpp"
#include "net/sim.hpp"

namespace dla::audit {
namespace {

crypto::RsaKeyPair make_key(std::uint64_t seed) {
  crypto::ChaCha20Rng rng(seed);
  return crypto::RsaKeyPair::generate(rng, 256);
}

net::Bytes checkpoint_bytes(std::uint64_t epoch) {
  CheckpointPayload cp;
  cp.epoch = epoch;
  cp.high_glsn = epoch * 10 + 3;
  cp.accumulator = bn::BigUInt(7000 + epoch);
  cp.manifest_hash = "manifest-" + std::to_string(epoch);
  net::Writer w;
  cp.encode(w);
  return std::move(w).take();
}

net::Bytes report_bytes(std::uint64_t tsn) {
  TransactionAuditReport rep;
  rep.tsn = tsn;
  rep.conforms = true;
  rep.verdicts.push_back(RuleVerdict{0, true, ""});
  rep.verdicts.push_back(RuleVerdict{1, true, "within bounds"});
  net::Writer w;
  rep.encode(w);
  return std::move(w).take();
}

// ----------------------------------------------------------- codecs -------

TEST(LedgerCodec, RecordRoundTrip) {
  auto key = make_key(1);
  LedgerRecord rec = make_ledger_record(RecordKind::Checkpoint, key, 3,
                                        {"aaaa", "bbbb"}, checkpoint_bytes(9));
  net::Writer w;
  rec.encode(w);
  net::Reader r(w.bytes());
  LedgerRecord back = LedgerRecord::decode(r);
  r.expect_end();
  EXPECT_EQ(back.kind, rec.kind);
  EXPECT_EQ(back.producer, rec.producer);
  EXPECT_EQ(back.seq, rec.seq);
  EXPECT_EQ(back.prev_hashes, rec.prev_hashes);
  EXPECT_EQ(back.canonical(), rec.canonical());
  EXPECT_EQ(back.hash(), rec.hash());
}

TEST(LedgerCodec, CheckpointPayloadRoundTrip) {
  CheckpointPayload cp;
  cp.epoch = 12;
  cp.high_glsn = 0x1234;
  cp.accumulator = bn::BigUInt(987654321u);
  cp.manifest_hash = "deadbeef";
  net::Writer w;
  cp.encode(w);
  net::Reader r(w.bytes());
  CheckpointPayload back = CheckpointPayload::decode(r);
  r.expect_end();
  EXPECT_EQ(back.epoch, cp.epoch);
  EXPECT_EQ(back.high_glsn, cp.high_glsn);
  EXPECT_EQ(back.accumulator, cp.accumulator);
  EXPECT_EQ(back.manifest_hash, cp.manifest_hash);
}

TEST(LedgerCodec, CertPayloadRoundTrip) {
  auto key = make_key(2);
  CertPayload cert;
  cert.subject = pseudonym_hash(key.public_key());
  cert.subject_n = key.public_key().n;
  cert.subject_e = key.public_key().e;
  cert.ca_token = bn::BigUInt(424242u);
  cert.valid_until = 99999;
  net::Writer w;
  cert.encode(w);
  net::Reader r(w.bytes());
  CertPayload back = CertPayload::decode(r);
  r.expect_end();
  EXPECT_EQ(back.subject, cert.subject);
  EXPECT_EQ(back.subject_n, cert.subject_n);
  EXPECT_EQ(back.subject_e, cert.subject_e);
  EXPECT_EQ(back.ca_token, cert.ca_token);
  EXPECT_EQ(back.valid_until, cert.valid_until);
}

TEST(LedgerCodec, AuditReportRoundTrip) {
  const net::Bytes bytes = report_bytes(77);
  net::Reader r(bytes);
  TransactionAuditReport back = TransactionAuditReport::decode(r);
  r.expect_end();
  EXPECT_EQ(back.tsn, 77u);
  EXPECT_TRUE(back.conforms);
  ASSERT_EQ(back.verdicts.size(), 2u);
  EXPECT_EQ(back.verdicts[1].rule_index, 1u);
  EXPECT_TRUE(back.verdicts[1].satisfied);
  EXPECT_EQ(back.verdicts[1].detail, "within bounds");
}

// ------------------------------------------------------ append rules ------

struct LedgerFixture : ::testing::Test {
  LedgerFixture() { ledger.install_genesis(genesis); }

  // One valid record by `key` on top of the given predecessors.
  LedgerRecord rec(const crypto::RsaKeyPair& key, std::uint64_t seq,
                   std::vector<std::string> prevs,
                   std::uint64_t epoch = 1) const {
    return make_ledger_record(RecordKind::Checkpoint, key, seq,
                              std::move(prevs), checkpoint_bytes(epoch));
  }

  crypto::RsaKeyPair ka = make_key(11), kb = make_key(12), kc = make_key(13);
  LedgerRecord genesis = make_genesis_record("test-domain");
  Ledger ledger;
};

TEST_F(LedgerFixture, AppendAcceptsValidRecord) {
  auto r = rec(ka, 1, {genesis.hash()});
  auto res = ledger.append(r);
  EXPECT_TRUE(res.ok()) << res.detail;
  EXPECT_EQ(ledger.size(), 2u);
  EXPECT_TRUE(ledger.contains(r.hash()));
  EXPECT_FALSE(ledger.settled(r.hash()));  // nothing built on it yet
}

TEST_F(LedgerFixture, DuplicateAppendRejected) {
  auto r = rec(ka, 1, {genesis.hash()});
  EXPECT_TRUE(ledger.append(r).ok());
  auto res = ledger.append(r);
  EXPECT_EQ(res.error, AppendError::Duplicate);
  EXPECT_EQ(ledger.size(), 2u);
}

TEST_F(LedgerFixture, MissingPredecessorIsRetryable) {
  auto res = ledger.append(rec(ka, 1, {"does-not-exist"}));
  EXPECT_EQ(res.error, AppendError::MissingPrev);
  EXPECT_EQ(ledger.size(), 1u);
}

TEST_F(LedgerFixture, RecordWithoutPredecessorsRejected) {
  EXPECT_EQ(ledger.append(rec(ka, 1, {})).error, AppendError::BadRecord);
}

TEST_F(LedgerFixture, NetworkGenesisRejected) {
  auto res = ledger.append(make_genesis_record("other-domain"));
  EXPECT_EQ(res.error, AppendError::BadRecord);
}

TEST_F(LedgerFixture, InterlockRejectsOwnPredecessor) {
  auto r1 = rec(ka, 1, {genesis.hash()});
  EXPECT_TRUE(ledger.append(r1).ok());
  auto res = ledger.append(rec(ka, 2, {r1.hash()}));
  EXPECT_EQ(res.error, AppendError::BadRecord);
  EXPECT_NE(res.detail.find("interlock"), std::string::npos);
}

TEST_F(LedgerFixture, TamperedPayloadFailsSignature) {
  auto r = rec(ka, 1, {genesis.hash()});
  r.payload = checkpoint_bytes(999);  // decodes fine, but unsigned content
  auto res = ledger.append(r);
  EXPECT_EQ(res.error, AppendError::BadRecord);
  EXPECT_NE(res.detail.find("signature"), std::string::npos);
}

TEST_F(LedgerFixture, MalformedPayloadRejected) {
  auto r = make_ledger_record(RecordKind::Checkpoint, ka, 1, {genesis.hash()},
                              net::Bytes{0x01, 0x02});
  auto res = ledger.append(r);
  EXPECT_EQ(res.error, AppendError::BadRecord);
}

TEST_F(LedgerFixture, EquivocationFlaggedAsMisconduct) {
  auto r1 = rec(ka, 1, {genesis.hash()}, /*epoch=*/1);
  auto fork = rec(ka, 1, {genesis.hash()}, /*epoch=*/2);  // same seq slot
  EXPECT_TRUE(ledger.append(r1).ok());
  auto res = ledger.append(fork);
  EXPECT_EQ(res.error, AppendError::BadRecord);
  ASSERT_EQ(ledger.misconduct().size(), 1u);
  EXPECT_EQ(ledger.misconduct()[0], pseudonym_hash(ka.public_key()));
}

TEST_F(LedgerFixture, SettlementNeedsDistinctForeignProducers) {
  auto r = rec(ka, 1, {genesis.hash()});
  ASSERT_TRUE(ledger.append(r).ok());
  // One foreign endorsement: below the settle_approvals = 2 threshold.
  auto eb = make_ledger_record(RecordKind::Endorsement, kb, 1, {r.hash()}, {});
  ASSERT_TRUE(ledger.append(eb).ok());
  EXPECT_FALSE(ledger.settled(r.hash()));
  // Second distinct foreign producer settles it (reachability is
  // transitive: kc builds on kb's endorsement, not on r directly).
  auto ec = make_ledger_record(RecordKind::Endorsement, kc, 1, {eb.hash()}, {});
  ASSERT_TRUE(ledger.append(ec).ok());
  EXPECT_TRUE(ledger.settled(r.hash()));
  EXPECT_EQ(settled_app_records(ledger).size(), 1u);
}

// ------------------------------------------------- verify() and I6 --------

struct VerifiedDagFixture : LedgerFixture {
  // genesis <- ra <- {eb, ec}; all honest, ra settled.
  VerifiedDagFixture() {
    ra = rec(ka, 1, {genesis.hash()});
    EXPECT_TRUE(ledger.append(ra).ok());
    eb = make_ledger_record(RecordKind::Endorsement, kb, 1, {ra.hash()}, {});
    EXPECT_TRUE(ledger.append(eb).ok());
    ec = make_ledger_record(RecordKind::Endorsement, kc, 1,
                            {ra.hash(), eb.hash()}, {});
    EXPECT_TRUE(ledger.append(ec).ok());
  }

  LedgerRecord ra, eb, ec;
};

TEST_F(VerifiedDagFixture, HonestDagVerifiesClean) {
  auto v = ledger.verify();
  EXPECT_TRUE(v.ok) << (v.violations.empty() ? "" : v.violations[0]);
  EXPECT_EQ(v.records_checked, 4u);
  InvariantReport report;
  check_ledger_certification("clean", ledger, settled_app_records(ledger),
                             report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_F(VerifiedDagFixture, RewrittenHistoryCaught) {
  ASSERT_TRUE(ledger.debug_tamper_payload(ra.hash(), checkpoint_bytes(666)));
  auto v = ledger.verify();
  ASSERT_FALSE(v.ok);
  EXPECT_NE(v.violations[0].find("rewritten history"), std::string::npos);
  InvariantReport report;
  check_ledger_certification("tamper", ledger, {}, report);
  EXPECT_FALSE(report.ok());
}

TEST_F(VerifiedDagFixture, TruncatedTailUnsettlesOracleRecords) {
  auto expected = settled_app_records(ledger);
  ASSERT_EQ(expected.size(), 1u);
  ledger.debug_truncate(2);  // drop both endorsements: ra loses settlement
  InvariantReport report;
  check_ledger_certification("truncate", ledger, expected, report);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("missing or unsettled"), std::string::npos);
}

TEST_F(VerifiedDagFixture, ForcedSelfApprovalCaught) {
  // A record certifying only its own producer's history, forced past
  // append() the way a compromised peer would.
  auto self_approved = rec(ka, 2, {ra.hash()});
  ledger.debug_force_append(self_approved);
  auto v = ledger.verify();
  ASSERT_FALSE(v.ok);
  bool found = false;
  for (const auto& viol : v.violations) {
    found = found || viol.find("interlock") != std::string::npos;
  }
  EXPECT_TRUE(found);
  InvariantReport report;
  check_ledger_certification("self-approval", ledger,
                             settled_app_records(ledger), report);
  EXPECT_FALSE(report.ok());
}

TEST_F(VerifiedDagFixture, FrontierCertificationMatchesBaseline) {
  std::vector<LedgerRecord> records{genesis, ra, eb, ec};
  // Tampered copy: payload swapped after signing, signature now stale.
  LedgerRecord bad = rec(kb, 7, {genesis.hash()});
  bad.payload = checkpoint_bytes(31337);
  records.push_back(bad);
  auto fast = certify_records(records);
  ASSERT_EQ(fast.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const bool baseline =
        pseudonym_hash(records[i].producer_key()) == records[i].producer &&
        records[i].producer_key().verify(records[i].canonical(),
                                         records[i].signature);
    EXPECT_EQ(fast[i], baseline) << "record " << i;
  }
  EXPECT_FALSE(fast.back());  // the tampered record is rejected
}

// --------------------------------------------- networked ledger peers -----

// CA + four members, all running LedgerPeer over one simulator. The
// workload (joins, certificate lifecycle, checkpoint, audit report) is
// fixed, so a fault-free run yields the oracle settled-record set that the
// chaos sweeps below must reproduce.
struct LedgerNet {
  static constexpr std::size_t kMembers = 4;

  LedgerNet() : ca("CA", crypto::RsaKeyPair::fixed512()) {
    ca_id = sim.add_node(ca);
    for (std::size_t i = 0; i < kMembers; ++i) {
      members.push_back(
          std::make_unique<MemberNode>("P" + std::to_string(i), 10 + i));
      member_ids.push_back(sim.add_node(*members[i]));
    }
  }

  MemberNode& m(std::size_t i) { return *members[i]; }

  void acquire_tokens() {
    for (auto& member : members) {
      bool ok = false;
      member->acquire_token(sim, ca_id, ca.public_key(),
                            [&](bool result) { ok = result; });
      sim.run();
      ASSERT_TRUE(ok) << member->name();
    }
  }

  void enable_ledgers() {
    for (auto& member : members) {
      member->enable_ledger("ledger-e2e", member_ids);
    }
  }

  // The fixed application workload every run (fault-free or chaotic)
  // executes: 12 application records across the four producers.
  void run_workload() {
    acquire_tokens();
    enable_ledgers();
    m(0).found_chain(sim, "founding terms");  // Evidence + CertIssue by P0
    sim.run();
    for (std::size_t i = 0; i + 1 < kMembers; ++i) {
      bool joined = false;
      m(i + 1).on_joined = [&](const EvidenceChain&) { joined = true; };
      m(i).invite(sim, member_ids[i + 1], "terms-" + std::to_string(i));
      sim.run();
      ASSERT_TRUE(joined) << "join " << i;
    }
    ASSERT_TRUE(m(1).renew_certificate(sim, 5000).has_value());
    sim.run();
    ASSERT_TRUE(m(2).revoke_certificate(sim, m(3).pseudonym()).has_value());
    sim.run();
    TransactionAuditReport rep;
    rep.tsn = 42;
    rep.conforms = true;
    rep.verdicts.push_back(RuleVerdict{0, true, ""});
    ASSERT_TRUE(publish_audit_report(m(3).ledger_peer(), sim, member_ids[3],
                                     rep)
                    .has_value());
    sim.run();
    CheckpointPayload cp;
    cp.epoch = 1;
    cp.high_glsn = 100;
    cp.accumulator = bn::BigUInt(1234567u);
    cp.manifest_hash = "seg-manifest-1";
    ASSERT_TRUE(publish_checkpoint(m(0).ledger_peer(), sim, member_ids[0], cp)
                    .has_value());
    sim.run();
  }

  net::Simulator sim;
  CaNode ca;
  net::NodeId ca_id = 0;
  std::vector<std::unique_ptr<MemberNode>> members;
  std::vector<net::NodeId> member_ids;
};

// Runs the fixed workload fault-free and returns member 0's settled set —
// the oracle every chaotic run is compared against.
std::vector<SettledRecordId> fault_free_oracle() {
  LedgerNet fx;
  fx.run_workload();
  return settled_app_records(fx.m(0).ledger_peer().ledger());
}

TEST(LedgerNet, FaultFreeRunSettlesEveryApplicationRecord) {
  LedgerNet fx;
  fx.run_workload();
  // 12 application records: P0 5 (found 2, invite 2, checkpoint),
  // P1 3 (invite 2, renew), P2 3 (invite 2, revoke), P3 1 (report).
  auto oracle = settled_app_records(fx.m(0).ledger_peer().ledger());
  EXPECT_EQ(oracle.size(), 12u);
  for (std::size_t i = 0; i < LedgerNet::kMembers; ++i) {
    const LedgerPeer& peer = fx.m(i).ledger_peer();
    EXPECT_EQ(settled_app_records(peer.ledger()), oracle) << "peer " << i;
    EXPECT_EQ(peer.pending_residue(), 0u) << "peer " << i;
    // Every peer endorses every foreign application record exactly once.
    const std::uint64_t own_app =
        peer.records_published() - peer.endorsements_sent();
    EXPECT_EQ(peer.endorsements_sent(), 12u - own_app) << "peer " << i;
    InvariantReport report;
    check_ledger_certification("fault-free peer " + std::to_string(i),
                               peer.ledger(), oracle, report);
    EXPECT_TRUE(report.ok()) << report.summary();
  }
}

TEST(LedgerChaos, BenignChaosSettlesTheOracleSet) {
  const auto oracle = fault_free_oracle();
  ASSERT_EQ(oracle.size(), 12u);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    LedgerNet fx;
    net::ChaosConfig cfg;
    cfg.dup_prob = 0.3;
    cfg.jitter_prob = 0.5;
    cfg.jitter_max = 40;
    cfg.reorder_prob = 0.3;
    cfg.reorder_window = 150;  // duplication + jitter + reordering, no loss
    net::ChaosEngine chaos(seed, cfg);
    fx.sim.set_chaos(&chaos);
    fx.run_workload();
    for (std::size_t i = 0; i < LedgerNet::kMembers; ++i) {
      const LedgerPeer& peer = fx.m(i).ledger_peer();
      EXPECT_EQ(settled_app_records(peer.ledger()), oracle)
          << "seed=" << seed << " peer=" << i;
      EXPECT_EQ(peer.pending_residue(), 0u)
          << "seed=" << seed << " peer=" << i;
      InvariantReport report;
      check_ledger_certification(
          "seed=" + std::to_string(seed) + " peer=" + std::to_string(i),
          peer.ledger(), oracle, report);
      EXPECT_TRUE(report.ok()) << report.summary();
    }
  }
}

TEST(LedgerChaos, FullDuplicationNeverDoubleEndorses) {
  const auto oracle = fault_free_oracle();
  LedgerNet fx;
  net::ChaosConfig cfg;
  cfg.dup_prob = 1.0;  // every frame delivered twice
  net::ChaosEngine chaos(99, cfg);
  fx.sim.set_chaos(&chaos);
  fx.run_workload();
  std::uint64_t ledger_replays = 0;
  for (std::size_t i = 0; i < LedgerNet::kMembers; ++i) {
    const LedgerPeer& peer = fx.m(i).ledger_peer();
    EXPECT_EQ(settled_app_records(peer.ledger()), oracle) << "peer " << i;
    // Each peer endorses exactly the foreign application records, once:
    // a duplicated kLedgerAppend must not mint a second endorsement.
    const std::uint64_t own_app =
        peer.records_published() - peer.endorsements_sent();
    EXPECT_EQ(peer.endorsements_sent(), 12u - own_app) << "peer " << i;
    ledger_replays += peer.replay_drops();
  }
  EXPECT_GT(ledger_replays, 0u);
  // The membership plane rode the same duplicated frames: the CA answered
  // duplicate token requests from its journal, and duplicated evidence
  // grants were dropped by the session guard without re-running a join.
  EXPECT_EQ(fx.ca.tokens_issued(), 4u);
  EXPECT_EQ(fx.ca.replay_drops(), 4u);
  for (std::size_t i = 1; i < LedgerNet::kMembers; ++i) {
    EXPECT_EQ(fx.m(i).joins_completed(), 1u) << "member " << i;
    EXPECT_GT(fx.m(i).replay_drops(), 0u) << "member " << i;
  }
}

// Fault injections on top of a *chaotic* run: the reproducing seed is part
// of the test name/label, as the explorer prints it.
TEST(LedgerChaos, InjectedFaultsAreCaughtUnderChaosSeed) {
  constexpr std::uint64_t kSeed = 7;
  LedgerNet fx;
  net::ChaosConfig cfg;
  cfg.dup_prob = 0.2;
  cfg.jitter_prob = 0.4;
  cfg.jitter_max = 30;
  net::ChaosEngine chaos(kSeed, cfg);
  fx.sim.set_chaos(&chaos);
  fx.run_workload();
  const auto oracle = settled_app_records(fx.m(0).ledger_peer().ledger());
  ASSERT_EQ(oracle.size(), 12u);

  // Fault 1: rewritten history on peer 1.
  {
    Ledger& ledger = fx.m(1).ledger_peer().ledger();
    std::string victim;
    for (const auto& h : ledger.order()) {
      if (ledger.find(h)->kind == RecordKind::Evidence) victim = h;
    }
    ASSERT_FALSE(victim.empty());
    ASSERT_TRUE(ledger.debug_tamper_payload(victim, checkpoint_bytes(666)));
    InvariantReport report;
    check_ledger_certification("seed=7 rewritten-history", ledger, oracle,
                               report);
    EXPECT_FALSE(report.ok());
  }
  // Fault 2: truncated tail on peer 2.
  {
    Ledger& ledger = fx.m(2).ledger_peer().ledger();
    ledger.debug_truncate(10);
    InvariantReport report;
    check_ledger_certification("seed=7 truncated-tail", ledger, oracle,
                               report);
    EXPECT_FALSE(report.ok());
  }
  // Fault 3: self-approval forced into peer 3.
  {
    Ledger& ledger = fx.m(3).ledger_peer().ledger();
    std::string own;
    for (const auto& h : ledger.order()) {
      if (ledger.find(h)->producer == fx.m(3).pseudonym()) own = h;
    }
    ASSERT_FALSE(own.empty());
    crypto::ChaCha20Rng rng(13);  // same identity key as member P3
    auto forged = make_ledger_record(RecordKind::Checkpoint,
                                     crypto::RsaKeyPair::generate(rng, 256),
                                     9999, {own}, checkpoint_bytes(5));
    ledger.debug_force_append(forged);
    InvariantReport report;
    check_ledger_certification("seed=7 self-approval", ledger, oracle,
                               report);
    EXPECT_FALSE(report.ok());
  }
  // Peer 0 was left untouched: I6 stays silent there.
  {
    InvariantReport report;
    check_ledger_certification("seed=7 untouched",
                               fx.m(0).ledger_peer().ledger(), oracle,
                               report);
    EXPECT_TRUE(report.ok()) << report.summary();
  }
}

TEST(LedgerNet, TailsProbeIsIdempotent) {
  LedgerNet fx;
  fx.run_workload();
  struct Probe : net::Node {
    void on_message(net::Transport&, const net::Message& msg) override {
      net::Reader r(msg.payload);
      reqid = r.u64();
      tails = r.vec<std::string>([](net::Reader& in) { return in.str(); });
      size = r.u64();
      settled = r.u64();
      r.expect_end();
      ++replies;
    }
    std::uint64_t reqid = 0, size = 0, settled = 0, replies = 0;
    std::vector<std::string> tails;
  } probe;
  net::NodeId probe_id = fx.sim.add_node(probe);
  net::Writer w;
  w.u64(31);
  const net::Bytes frame = std::move(w).take();
  fx.sim.send(probe_id, fx.member_ids[0], kLedgerTailsRequest, frame);
  fx.sim.send(probe_id, fx.member_ids[0], kLedgerTailsRequest,
              frame);  // duplicate
  fx.sim.run();
  EXPECT_EQ(probe.replies, 2u);  // read-only probe: same answer, no journal
  EXPECT_EQ(probe.reqid, 31u);
  EXPECT_EQ(probe.size, fx.m(0).ledger_peer().ledger().size());
  EXPECT_FALSE(probe.tails.empty());
  EXPECT_GT(probe.settled, 0u);
}

// ---------------------- evidence/audit path at-least-once regressions -----

TEST(AuditIdempotence, DuplicatedQueriesAnswerOnceFromJournal) {
  // Full cluster under 100% duplication, zero loss: every kAuditQuery,
  // kLogFragment and internal frame arrives twice. Queries must answer
  // correctly, duplicates must be served from the reply journal, and no
  // session state may leak.
  Cluster cluster(Cluster::Options{logm::paper_schema(), 4, 2,
                                   logm::paper_partition(), /*seed=*/7,
                                   /*auditor_users=*/true});
  net::ChaosConfig cfg;
  cfg.dup_prob = 1.0;
  net::ChaosEngine chaos(3, cfg);
  cluster.sim().set_chaos(&chaos);
  std::vector<logm::Glsn> glsns;
  for (const auto& rec : logm::paper_table1_records()) {
    cluster.user(0).log_record(cluster.sim(), rec.attrs,
                               [&](std::optional<logm::Glsn> glsn) {
                                 ASSERT_TRUE(glsn.has_value());
                                 glsns.push_back(*glsn);
                               });
  }
  cluster.run();
  ASSERT_EQ(glsns.size(), 5u);

  std::optional<QueryOutcome> outcome;
  cluster.user(0).query(cluster.sim(), "id = 'U1' AND C2 > 100.0",
                        [&](QueryOutcome o) { outcome = std::move(o); });
  cluster.run();
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->ok) << outcome->error;
  EXPECT_EQ(outcome->glsns, (std::vector<logm::Glsn>{glsns[2]}));

  std::uint64_t replays = 0;
  for (std::size_t i = 0; i < cluster.dla_count(); ++i) {
    replays += cluster.dla(i).replay_drops();
  }
  EXPECT_GT(replays, 0u);  // the duplicated query hit the journal
  InvariantReport report;
  check_session_quiescence(cluster, report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(AuditIdempotence, DepositCannotResurrectAfterDelete) {
  // A duplicated upload (which carries the deposit) arriving after the
  // record was deleted must not re-create integrity state for the erased
  // glsn (the overtake race: upload-dup reordered past the delete).
  Cluster cluster(Cluster::Options{logm::paper_schema(), 4, 2,
                                   logm::paper_partition(), /*seed=*/7,
                                   /*auditor_users=*/true});
  // The default cluster ticket lacks Delete; swap in a delete-capable one.
  cluster.user(0).configure(
      cluster.config(),
      cluster.issue_ticket("TLD", "u0",
                           {logm::Op::Read, logm::Op::Write, logm::Op::Delete},
                           /*auditor=*/true));
  std::vector<logm::Glsn> glsns;
  for (const auto& rec : logm::paper_table1_records()) {
    cluster.user(0).log_record(cluster.sim(), rec.attrs,
                               [&](std::optional<logm::Glsn> glsn) {
                                 ASSERT_TRUE(glsn.has_value());
                                 glsns.push_back(*glsn);
                               });
  }
  cluster.run();
  ASSERT_EQ(glsns.size(), 5u);
  const logm::Glsn victim = glsns[1];
  // Rebuild the victim's original upload frames, deposit included.
  const bn::BigUInt deposit = cluster.dla(0).deposits().at(victim);
  std::vector<net::Bytes> uploads;
  for (std::size_t i = 0; i < cluster.dla_count(); ++i) {
    net::Writer w;
    cluster.user(0).ticket().encode(w);
    w.boolean(false);  // is_replica
    cluster.dla(i).store().get(victim)->encode(w);
    w.u32(static_cast<std::uint32_t>(i));  // copy_seq
    w.big(deposit);
    uploads.push_back(std::move(w).take());
  }

  bool deleted = false;
  cluster.user(0).delete_record(cluster.sim(), victim,
                                [&](bool ok) { deleted = ok; });
  cluster.run();
  ASSERT_TRUE(deleted);
  for (std::size_t i = 0; i < cluster.dla_count(); ++i) {
    EXPECT_FALSE(cluster.dla(i).deposits().contains(victim)) << "node " << i;
  }
  // Replay each node's upload frame (the straggler dup).
  const std::uint64_t drops_before = cluster.dla(0).replay_drops();
  for (std::size_t i = 0; i < cluster.dla_count(); ++i) {
    cluster.sim().send(cluster.user(0).id(), cluster.dla(i).id(),
                       kLogFragment, uploads[i]);
  }
  cluster.run();
  for (std::size_t i = 0; i < cluster.dla_count(); ++i) {
    EXPECT_FALSE(cluster.dla(i).deposits().contains(victim))
        << "deposit resurrected on node " << i;
    EXPECT_FALSE(cluster.dla(i).storage().contains(victim))
        << "fragment resurrected on node " << i;
  }
  EXPECT_GT(cluster.dla(0).replay_drops(), drops_before);
}

}  // namespace
}  // namespace dla::audit
