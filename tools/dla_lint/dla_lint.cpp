// dla_lint — repo-specific static analysis for the DLA codebase.
//
// A two-pass, whole-program analyzer. Pass 1 tokenizes every file under
// <root>/src (in parallel, --jobs N) and builds a cross-file SymbolIndex:
// the MsgType enum, every encode/decode codec definition with its extracted
// wire-primitive sequence, and the tokenized #include graph. Pass 2 runs the
// per-file rules in parallel over the shared token streams, then the
// whole-program rules over the index.
//
// Rules (see docs/STATIC_ANALYSIS.md for the full rationale):
//
//   crypto-boundary      raw modpow/Montgomery kernels and their contexts may
//                        only be touched under src/crypto/ and src/bignum/;
//                        everything else must go through ModExpEngine or a
//                        key-handle class (RsaKeyPair, AccumulatorStepper, ...).
//   plaintext-egress     logm::Value / Fragment / LogRecord plaintext may only
//                        be serialized toward the wire from the whitelisted
//                        fragment-upload path (user_node.cpp) and the logm
//                        codec layer itself — never from DLA-node handlers,
//                        unless explicitly waived (authorized-result paths).
//   nondeterminism       std::random_device, rand/srand, std::mt19937-family
//                        engines and wall clocks are banned in protocol and
//                        simulator code (src/audit, src/net): they silently
//                        break seeded chaos replay and SHA-256 trace-chain
//                        divergence pinpointing.
//   unordered-container  std::unordered_* containers are banned in protocol
//                        and simulator code: their iteration order is
//                        unspecified, which breaks deterministic replay.
//   msgtype-switch       a switch over MsgType must either handle every
//                        enumerator explicitly (no default) or carry a waiver
//                        on its default label; silently-defaulted dispatch is
//                        how new message types lose coverage.
//   msgtype-coverage     every MsgType enumerator must be *handled* (a case
//                        label whose body does real work, or an explicit
//                        msg.type == comparison) somewhere under src/.
//   metrics-registry     every counter field declared in audit/metrics.hpp
//                        counter structs must be written somewhere in src/
//                        and documented in docs/*.md.
//   mmap-egress          raw mapped segment memory (mmap/munmap/mapped_base)
//                        is confined to src/logm/ (docs/STORAGE.md).
//   codec-symmetry       every encode(net::Writer&)/decode(net::Reader&) pair
//                        must perform the same ordered wire-primitive
//                        sequence in both directions, and every paired
//                        payload struct / MsgType enumerator must be
//                        documented in docs/PROTOCOLS.md. This is the check
//                        that would have caught the PR-6 kGlsnReply
//                        vestigial-u32 bug at lint time.
//   expect-end           every locally-constructed net::Reader must be
//                        drained with expect_end() before its scope ends, so
//                        the trailing-bytes discipline cannot regress.
//   include-layering     the explicit dependency DAG over src/{bignum,crypto,
//                        logm,net,audit}, checked per tokenized #include.
//
// Waiver syntax (same line or the line directly above the violation):
//   // DLA-LINT-ALLOW(<rule>): <reason>
// A waiver with no reason or an unknown rule id is itself a violation
// (bad-waiver); a waiver that suppresses nothing is reported (unused-waiver)
// so stale annotations cannot accumulate.
//
// Self-test mode (--self-test) runs the rules over a fixture tree whose files
// carry // EXPECT(<rule>) annotations and verifies the diagnostic set matches
// exactly (rule id + file + line), including that waivers suppress.
//
// Deliberately standalone C++17 with no libclang dependency: a lightweight
// lexer is enough for these token-shaped rules, keeps the tool buildable
// everywhere the tree builds, and runs over the whole repo in milliseconds
// (--budget-ms asserts that in CI).

#include "lint.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string_view>
#include <thread>
#include <unordered_map>

#if defined(_WIN32)
#error "dla_lint supports POSIX hosts only"
#endif
#include <limits.h>

namespace dla_lint {

const std::set<std::string>& known_rules() {
  static const std::set<std::string> rules = {
      "crypto-boundary",  "plaintext-egress", "nondeterminism",
      "unordered-container", "msgtype-switch", "msgtype-coverage",
      "metrics-registry", "mmap-egress",      "codec-symmetry",
      "expect-end",       "include-layering"};
  return rules;
}

namespace {

// ------------------------------------------------------------ rule scope --

bool in_crypto_layer(const std::string& rel) {
  return has_prefix(rel, "src/crypto/") || has_prefix(rel, "src/bignum/");
}

bool in_protocol_layer(const std::string& rel) {
  return has_prefix(rel, "src/audit/") || has_prefix(rel, "src/net/");
}
// mmap-egress scope: everything under src/ except the storage layer itself.
bool outside_storage_layer(const std::string& rel) {
  return !has_prefix(rel, "src/logm/");
}

// Fragment-upload / application-side path where plaintext legitimately
// crosses into a message: the user's own node serializing its own record.
bool egress_whitelisted(const std::string& rel) {
  return !has_prefix(rel, "src/audit/") ||
         has_suffix(rel, "audit/user_node.cpp");
}

// ---------------------------------------------------------- parallel_for --

void parallel_for(std::size_t count, int jobs,
                  const std::function<void(std::size_t)>& fn) {
  if (jobs <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  const std::size_t nthreads =
      std::min<std::size_t>(static_cast<std::size_t>(jobs), count);
  std::vector<std::thread> threads;
  threads.reserve(nthreads);
  for (std::size_t w = 0; w < nthreads; ++w) {
    threads.emplace_back([&] {
      while (true) {
        std::size_t i = next.fetch_add(1);
        if (i >= count) break;
        fn(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

// --------------------------------------------------------- per-file rules --

// crypto-boundary, nondeterminism, unordered-container, mmap-egress:
// straight banned-identifier scans with layer scoping.
void rule_banned_tokens(const SourceFile& f, Report* out) {
  struct Ban {
    const char* token;
    const char* rule;
    bool (*applies)(const std::string& rel);
    const char* why;
  };
  static const Ban bans[] = {
      // Raw Montgomery kernel surface (bignum/montgomery.hpp).
      {"MontgomeryContext", "crypto-boundary", nullptr,
       "raw Montgomery contexts are confined to src/crypto + src/bignum; use "
       "ModExpEngine or a key-handle (RsaKeyPair, AccumulatorStepper)"},
      {"mont_mul_raw", "crypto-boundary", nullptr, "raw Montgomery kernel"},
      {"mont_sqr_raw", "crypto-boundary", nullptr, "raw Montgomery kernel"},
      {"to_mont_raw", "crypto-boundary", nullptr, "raw Montgomery kernel"},
      {"redc_raw", "crypto-boundary", nullptr, "raw Montgomery kernel"},
      {"mont_one", "crypto-boundary", nullptr, "raw Montgomery kernel"},
      {"to_lanes_raw", "crypto-boundary", nullptr, "raw 8-lane IFMA kernel"},
      {"lane_mul_raw", "crypto-boundary", nullptr, "raw 8-lane IFMA kernel"},
      {"lane_sqr_raw", "crypto-boundary", nullptr, "raw 8-lane IFMA kernel"},
      {"from_lanes_raw", "crypto-boundary", nullptr, "raw 8-lane IFMA kernel"},
      {"modpow", "crypto-boundary", nullptr,
       "raw modular exponentiation outside the crypto layer"},
      // Nondeterminism sources in protocol/simulator code.
      {"random_device", "nondeterminism", nullptr,
       "unseeded entropy breaks seeded chaos replay; use crypto::ChaCha20Rng "
       "with a named stream"},
      {"rand", "nondeterminism", nullptr,
       "rand() is unseeded global state; use crypto::ChaCha20Rng"},
      {"srand", "nondeterminism", nullptr,
       "global RNG seeding; use crypto::ChaCha20Rng"},
      {"mt19937", "nondeterminism", nullptr,
       "use crypto::ChaCha20Rng with a named stream so replay stays seeded"},
      {"mt19937_64", "nondeterminism", nullptr,
       "use crypto::ChaCha20Rng with a named stream so replay stays seeded"},
      {"minstd_rand", "nondeterminism", nullptr,
       "use crypto::ChaCha20Rng with a named stream"},
      {"default_random_engine", "nondeterminism", nullptr,
       "use crypto::ChaCha20Rng with a named stream"},
      {"system_clock", "nondeterminism", nullptr,
       "wall clocks diverge across runs; use net::Simulator virtual time"},
      {"steady_clock", "nondeterminism", nullptr,
       "wall clocks diverge across runs; use net::Simulator virtual time"},
      {"high_resolution_clock", "nondeterminism", nullptr,
       "wall clocks diverge across runs; use net::Simulator virtual time"},
      {"gettimeofday", "nondeterminism", nullptr,
       "wall clocks diverge across runs; use net::Simulator virtual time"},
      {"clock_gettime", "nondeterminism", nullptr,
       "wall clocks diverge across runs; use net::Simulator virtual time"},
      // Unspecified iteration order in protocol/simulator code.
      {"unordered_map", "unordered-container", nullptr,
       "iteration order is unspecified and breaks deterministic replay; use "
       "std::map"},
      {"unordered_set", "unordered-container", nullptr,
       "iteration order is unspecified and breaks deterministic replay; use "
       "std::set"},
      {"unordered_multimap", "unordered-container", nullptr,
       "iteration order is unspecified; use std::multimap"},
      {"unordered_multiset", "unordered-container", nullptr,
       "iteration order is unspecified; use std::multiset"},
      // Raw mapped segment memory is confined to the storage layer; every
      // other layer consumes fragments through logm::StorageEngine, whose
      // open path validates the whole file first (docs/STORAGE.md).
      {"mmap", "mmap-egress", outside_storage_layer,
       "raw segment mappings are confined to src/logm; go through "
       "logm::StorageEngine"},
      {"munmap", "mmap-egress", outside_storage_layer,
       "raw segment mappings are confined to src/logm"},
      {"mapped_base", "mmap-egress", outside_storage_layer,
       "raw mapped-segment bytes must not leave src/logm; use the Segment "
       "row/cell accessors via logm::StorageEngine"},
      {"mapped_base_", "mmap-egress", outside_storage_layer,
       "raw mapped-segment bytes must not leave src/logm"},
      {"MAP_FAILED", "mmap-egress", outside_storage_layer,
       "raw segment mappings are confined to src/logm"},
  };

  // Each banned token appears once in the table: one lookup per identifier.
  static const std::unordered_map<std::string_view, const Ban*> by_token = [] {
    std::unordered_map<std::string_view, const Ban*> m;
    for (const Ban& ban : bans) m.emplace(ban.token, &ban);
    return m;
  }();

  const bool crypto_ok = in_crypto_layer(f.rel_path);
  const bool protocol = in_protocol_layer(f.rel_path);
  for (std::size_t t = 0; t < f.tokens.size(); ++t) {
    const Token& tok = f.tokens[t];
    if (tok.kind == TokKind::Include) {
      // #include "bignum/montgomery.hpp" outside the crypto layer is the
      // include-level form of the same boundary breach. Matching on Include
      // tokens (not String) means a string literal containing the path can
      // never spoof or trip this.
      if (!crypto_ok &&
          tok.text.find("bignum/montgomery") != std::string::npos) {
        out->push_back({f.rel_path, tok.line, "crypto-boundary",
                        "including the raw Montgomery kernel header; depend "
                        "on crypto/ key handles instead"});
      }
      continue;
    }
    if (tok.kind != TokKind::Identifier) continue;
    const auto hit = by_token.find(tok.text);
    if (hit == by_token.end()) continue;
    const Ban& ban = *hit->second;
    if (ban.applies != nullptr) {
      // Rule carries its own layer predicate (mmap-egress).
      if (!ban.applies(f.rel_path)) continue;
    } else {
      const bool is_crypto_rule = std::strcmp(ban.rule, "crypto-boundary") == 0;
      if (is_crypto_rule && crypto_ok) continue;
      if (!is_crypto_rule && !protocol) continue;
    }
    // `rand` only as a call: require '(' next so e.g. member fields named
    // rand_… (none today) or comments don't trip; all other tokens are
    // specific enough to flag on sight.
    if (std::strcmp(ban.token, "rand") == 0 &&
        (t + 1 >= f.tokens.size() || f.tokens[t + 1].text != "(")) {
      continue;
    }
    out->push_back({f.rel_path, tok.line, ban.rule,
                    std::string(ban.token) + ": " + ban.why});
  }
}

// plaintext-egress: Value/Fragment/LogRecord serialization toward the wire
// from non-whitelisted audit code.
void rule_plaintext_egress(const SourceFile& f, Report* out) {
  if (egress_whitelisted(f.rel_path)) return;
  const std::vector<Token>& toks = f.tokens;
  auto base_matches = [](const std::string& name) {
    std::string lower;
    for (char c : name) lower += static_cast<char>(std::tolower(
        static_cast<unsigned char>(c)));
    return lower.find("frag") != std::string::npos ||
           lower.find("record") != std::string::npos ||
           lower.find("value") != std::string::npos;
  };
  for (std::size_t t = 0; t < toks.size(); ++t) {
    if (toks[t].kind != TokKind::Identifier) continue;
    // encode_attrs(...) is the shared attribute-map codec.
    if (toks[t].text == "encode_attrs" && t + 1 < toks.size() &&
        toks[t + 1].text == "(") {
      out->push_back({f.rel_path, toks[t].line, "plaintext-egress",
                      "encode_attrs serializes plaintext attribute values; "
                      "only the fragment-upload and authorized-result paths "
                      "may do this"});
      continue;
    }
    if (toks[t].text != "encode" || t + 1 >= toks.size() ||
        toks[t + 1].text != "(")
      continue;
    if (t < 2) continue;
    const Token& sep = toks[t - 1];
    std::string base;
    if (sep.text == "." || sep.text == "->") {
      // Walk back over an index suffix: fragments[i].encode -> fragments.
      std::size_t b = t - 2;
      if (toks[b].text == "]") {
        int depth = 1;
        while (b > 0 && depth > 0) {
          --b;
          if (toks[b].text == "]") ++depth;
          if (toks[b].text == "[") --depth;
        }
        if (b > 0) --b;
      }
      if (toks[b].kind == TokKind::Identifier) base = toks[b].text;
    } else if (sep.text == "::") {
      base = toks[t - 2].text;  // Fragment::encode / Value::encode
    }
    if (!base.empty() && base_matches(base)) {
      out->push_back({f.rel_path, toks[t].line, "plaintext-egress",
                      base + "." + "encode() serializes plaintext toward the "
                      "wire outside the whitelisted upload path"});
    }
  }
}

// msgtype-switch + the per-file half of msgtype-coverage: switch analysis
// over MsgType and handled-enumerator collection. `handled` is this file's
// contribution, merged across files before the coverage verdict.
void rule_msgtype_switches(const SourceFile& f,
                           const std::set<std::string>& enumerators,
                           Report* out, std::set<std::string>* handled) {
  const std::vector<Token>& toks = f.tokens;

  // Coverage source (b): explicit `== kFoo` / `kFoo ==` comparisons.
  for (std::size_t t = 0; t < toks.size(); ++t) {
    if (toks[t].kind != TokKind::Identifier ||
        enumerators.count(toks[t].text) == 0)
      continue;
    if ((t > 0 && (toks[t - 1].text == "==" || toks[t - 1].text == "!=")) ||
        (t + 1 < toks.size() &&
         (toks[t + 1].text == "==" || toks[t + 1].text == "!=")))
      handled->insert(toks[t].text);
  }

  for (std::size_t t = 0; t < toks.size(); ++t) {
    if (toks[t].text != "switch" || toks[t].kind != TokKind::Identifier)
      continue;
    // Find the switch body '{' after the condition's balanced parens.
    std::size_t j = t + 1;
    while (j < toks.size() && toks[j].text != "(") ++j;
    if (j >= toks.size()) continue;
    int pdepth = 1;
    ++j;
    while (j < toks.size() && pdepth > 0) {
      if (toks[j].text == "(") ++pdepth;
      if (toks[j].text == ")") --pdepth;
      ++j;
    }
    while (j < toks.size() && toks[j].text != "{") ++j;
    if (j >= toks.size()) continue;

    // Walk the body at depth 1 collecting case groups and a default label.
    int depth = 1;
    std::size_t k = j + 1;
    std::set<std::string> labels;          // all MsgType case labels
    std::vector<std::string> group;        // labels of the current group
    bool group_has_work = false;
    bool in_group = false;
    int default_line = 0;
    int switch_line = toks[t].line;
    auto close_group = [&]() {
      if (in_group && group_has_work)
        for (const std::string& l : group) handled->insert(l);
      group.clear();
      group_has_work = false;
      in_group = false;
    };
    while (k < toks.size() && depth > 0) {
      const Token& tok = toks[k];
      if (tok.text == "{") ++depth;
      if (tok.text == "}") --depth;
      if (depth == 0) break;
      if (depth == 1 && tok.text == "case") {
        // New group starts only if the previous group already did work;
        // consecutive case labels fall through into one group.
        if (group_has_work) close_group();
        in_group = true;
        // Label is the identifier before ':' (possibly qualified).
        std::size_t l = k + 1;
        std::string last_ident;
        while (l < toks.size() && toks[l].text != ":") {
          if (toks[l].kind == TokKind::Identifier) last_ident = toks[l].text;
          ++l;
        }
        if (enumerators.count(last_ident) != 0) {
          labels.insert(last_ident);
          group.push_back(last_ident);
        }
        k = l + 1;
        continue;
      }
      if (depth == 1 && tok.text == "default" && k + 1 < toks.size() &&
          toks[k + 1].text == ":") {
        close_group();
        default_line = tok.line;
        ++k;
        continue;
      }
      if (in_group && tok.text != ";" && tok.text != "break" &&
          tok.text != "{" && tok.text != "}") {
        group_has_work = true;
      }
      ++k;
    }
    close_group();

    if (labels.empty()) continue;  // not a MsgType switch

    if (default_line != 0) {
      out->push_back({f.rel_path, default_line, "msgtype-switch",
                      "defaulted switch over MsgType silently swallows "
                      "unhandled message types; enumerate every MsgType "
                      "(ignored ones explicitly) or waive with a reason"});
    } else {
      std::vector<std::string> missing;
      for (const std::string& e : enumerators)
        if (labels.count(e) == 0) missing.push_back(e);
      if (!missing.empty()) {
        std::string list;
        for (std::size_t m = 0; m < missing.size() && m < 6; ++m)
          list += (m != 0 ? ", " : "") + missing[m];
        if (missing.size() > 6) list += ", ...";
        out->push_back({f.rel_path, switch_line, "msgtype-switch",
                        "non-exhaustive switch over MsgType (missing " +
                            std::to_string(missing.size()) + ": " + list +
                            ")"});
      }
    }
  }
}

// --------------------------------------------------------------- linter --

class Linter {
 public:
  Linter(std::string root, int jobs)
      : root_(std::move(root)), jobs_(jobs) {}

  bool load();
  void run();
  void list_codecs() const;

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  const std::vector<SourceFile>& files() const { return files_; }

 private:
  void rule_msgtype_coverage();
  void rule_metrics_registry();
  void apply_waivers();

  std::string root_;
  int jobs_ = 1;
  std::vector<SourceFile> files_;
  std::vector<std::string> doc_texts_;  // contents of docs/*.md under root
  std::string protocols_doc_;           // contents of docs/PROTOCOLS.md
  SymbolIndex index_;
  std::vector<Diagnostic> pending_;
  std::vector<Diagnostic> diagnostics_;
  std::set<std::string> msgtype_handled_;
};

bool Linter::load() {
  std::vector<std::string> paths;
  walk(root_ + "/src", &paths);
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> srcs;
  for (const std::string& path : paths)
    if (is_source_file(path)) srcs.push_back(path);

  files_.resize(srcs.size());
  std::atomic<bool> ok{true};
  parallel_for(srcs.size(), jobs_, [&](std::size_t i) {
    std::string text;
    if (!read_file(srcs[i], &text)) {
      std::fprintf(stderr, "dla_lint: cannot read %s\n", srcs[i].c_str());
      ok.store(false);
      return;
    }
    files_[i] = tokenize(srcs[i].substr(root_.size() + 1), text);
  });
  if (!ok.load()) return false;

  std::vector<std::string> docs;
  walk(root_ + "/docs", &docs);
  std::sort(docs.begin(), docs.end());
  for (const std::string& path : docs) {
    if (!has_suffix(path, ".md")) continue;
    std::string text;
    if (!read_file(path, &text)) continue;
    if (has_suffix(path, "PROTOCOLS.md")) protocols_doc_ = text;
    doc_texts_.push_back(std::move(text));
  }
  return !files_.empty();
}

void Linter::rule_msgtype_coverage() {
  for (const std::string& e : index_.msgtype_enumerators) {
    if (msgtype_handled_.count(e) != 0) continue;
    const auto& decl = index_.msgtype_decl.at(e);
    pending_.push_back(
        {decl.first, decl.second, "msgtype-coverage",
         e + " is declared but no dispatch switch or msg.type comparison "
         "handles it"});
  }
}

// metrics-registry: counter structs in audit/metrics.hpp — every field
// written somewhere in src/ and mentioned in docs/*.md.
void Linter::rule_metrics_registry() {
  const SourceFile* metrics = nullptr;
  for (const SourceFile& f : files_)
    if (has_suffix(f.rel_path, "audit/metrics.hpp")) metrics = &f;
  if (metrics == nullptr) return;

  // Collect fields of structs whose name ends in "Counters".
  struct Field {
    std::string name;
    int line;
  };
  std::vector<Field> fields;
  const std::vector<Token>& toks = metrics->tokens;
  for (std::size_t t = 0; t + 2 < toks.size(); ++t) {
    if (toks[t].text != "struct" && toks[t].text != "class") continue;
    const std::string& name = toks[t + 1].text;
    if (!has_suffix(name, "Counters")) continue;
    std::size_t b = t + 2;
    while (b < toks.size() && toks[b].text != "{" && toks[b].text != ";") ++b;
    if (b >= toks.size() || toks[b].text != "{") continue;
    int depth = 1;
    for (std::size_t j = b + 1; j < toks.size() && depth > 0; ++j) {
      if (toks[j].text == "{") ++depth;
      if (toks[j].text == "}") --depth;
      if (depth != 1) continue;
      // A field declaration looks like `<type tokens> name = 0;` or
      // `<type tokens> name;` — detect identifier followed by '=' or ';'
      // whose previous token is part of a type (identifier or '>').
      if (toks[j].kind == TokKind::Identifier && j + 1 < toks.size() &&
          (toks[j + 1].text == "=" || toks[j + 1].text == ";") &&
          j > b + 1 &&
          (toks[j - 1].kind == TokKind::Identifier || toks[j - 1].text == ">" ||
           toks[j - 1].text == "&" || toks[j - 1].text == "*")) {
        fields.push_back({toks[j].text, toks[j].line});
      }
    }
  }

  // One pass over every token of the tree marks the fields written.
  std::unordered_map<std::string_view, bool> written;
  for (const Field& field : fields) written.emplace(field.name, false);
  for (const SourceFile& f : files_) {
    if (&f == metrics) continue;
    const std::vector<Token>& ft = f.tokens;
    for (std::size_t t = 0; t < ft.size(); ++t) {
      if (ft[t].kind != TokKind::Identifier) continue;
      const auto it = written.find(ft[t].text);
      if (it == written.end() || it->second) continue;
      if (t + 1 < ft.size()) {
        const std::string& nx = ft[t + 1].text;
        if (nx == "=" || nx == "+=" || nx == "-=" || nx == "++" || nx == "--")
          it->second = true;
      }
      if (t > 0 && (ft[t - 1].text == "++" || ft[t - 1].text == "--"))
        it->second = true;
      // Pre-increment through a member access: `++ctr.field`.
      if (t >= 3 && (ft[t - 1].text == "." || ft[t - 1].text == "->") &&
          (ft[t - 3].text == "++" || ft[t - 3].text == "--"))
        it->second = true;
    }
  }

  for (const Field& field : fields) {
    if (!written.at(field.name)) {
      pending_.push_back({metrics->rel_path, field.line, "metrics-registry",
                          "counter '" + field.name +
                              "' is declared but never written anywhere "
                              "under src/"});
    }
    const std::boyer_moore_horspool_searcher needle(field.name.begin(),
                                                    field.name.end());
    const bool documented = std::any_of(
        doc_texts_.begin(), doc_texts_.end(), [&](const std::string& doc) {
          return std::search(doc.begin(), doc.end(), needle) != doc.end();
        });
    if (!documented) {
      pending_.push_back({metrics->rel_path, field.line, "metrics-registry",
                          "counter '" + field.name +
                              "' is not documented in any docs/*.md (see the "
                              "metrics registry in docs/STATIC_ANALYSIS.md)"});
    }
  }
}

void Linter::apply_waivers() {
  // Waiver bookkeeping first: unknown rules / missing reasons are violations
  // and such waivers never suppress.
  for (SourceFile& f : files_) {
    for (Waiver& w : f.waivers) {
      if (known_rules().count(w.rule) == 0) {
        diagnostics_.push_back(
            Diagnostic{f.rel_path, w.line, "bad-waiver",
                       "DLA-LINT-ALLOW names unknown rule '" + w.rule + "'"});
        w.used = true;  // don't also report as unused
      } else if (!w.has_reason) {
        diagnostics_.push_back(Diagnostic{
            f.rel_path, w.line, "bad-waiver",
            "DLA-LINT-ALLOW(" + w.rule +
                ") is missing a reason: write DLA-LINT-ALLOW(" + w.rule +
                "): <why this is safe>"});
        w.used = true;
      }
    }
  }

  for (const Diagnostic& d : pending_) {
    bool suppressed = false;
    for (SourceFile& f : files_) {
      if (f.rel_path != d.file) continue;
      for (Waiver& w : f.waivers) {
        if (w.rule == d.rule && w.has_reason &&
            known_rules().count(w.rule) != 0 &&
            (w.line == d.line || w.line + 1 == d.line)) {
          w.used = true;
          suppressed = true;
        }
      }
    }
    if (!suppressed) diagnostics_.push_back(d);
  }

  for (const SourceFile& f : files_) {
    for (const Waiver& w : f.waivers) {
      if (!w.used) {
        diagnostics_.push_back(Diagnostic{
            f.rel_path, w.line, "unused-waiver",
            "DLA-LINT-ALLOW(" + w.rule +
                ") suppresses nothing on this or the next line; remove it"});
      }
    }
  }
  std::sort(diagnostics_.begin(), diagnostics_.end());
}

void Linter::run() {
  // Pass 1: the whole-program symbol index (MsgType enum, codec defs with
  // op sequences, include graph). Cheap relative to tokenization; serial.
  index_.file_info.resize(files_.size());
  for (std::size_t i = 0; i < files_.size(); ++i)
    index_file(files_[i], i, &index_);

  // Pass 2: per-file rules in parallel, each into its own buffer; merged in
  // file order so output stays deterministic regardless of --jobs.
  struct FileResult {
    Report pending;
    std::set<std::string> handled;
  };
  std::vector<FileResult> results(files_.size());
  parallel_for(files_.size(), jobs_, [&](std::size_t i) {
    const SourceFile& f = files_[i];
    FileResult& r = results[i];
    rule_banned_tokens(f, &r.pending);
    rule_plaintext_egress(f, &r.pending);
    rule_msgtype_switches(f, index_.msgtype_enumerators, &r.pending,
                          &r.handled);
    rule_expect_end(f, &r.pending);
    rule_include_layering(f, index_.file_info[i], &r.pending);
  });
  for (FileResult& r : results) {
    pending_.insert(pending_.end(), r.pending.begin(), r.pending.end());
    msgtype_handled_.insert(r.handled.begin(), r.handled.end());
  }

  // Whole-program rules over the index.
  rule_msgtype_coverage();
  rule_metrics_registry();
  rule_codec_symmetry(index_, files_, protocols_doc_, &pending_);
  apply_waivers();
}

void Linter::list_codecs() const {
  struct Group {
    std::vector<const CodecDef*> encodes;
    std::vector<const CodecDef*> decodes;
  };
  std::map<std::pair<std::string, bool>, Group> groups;
  for (const CodecDef& def : index_.codecs) {
    Group& g = groups[{def.owner, def.is_helper}];
    (def.is_encode ? g.encodes : g.decodes).push_back(&def);
  }
  auto join = [](const std::vector<std::string>& ops) {
    std::string s;
    for (std::size_t i = 0; i < ops.size(); ++i)
      s += (i ? "," : "") + ops[i];
    return s;
  };
  for (const auto& entry : groups) {
    const Group& g = entry.second;
    const char* kind = entry.first.second ? "helper-pair" : "pair";
    if (!g.encodes.empty() && !g.decodes.empty()) {
      const CodecDef* e = g.encodes.front();
      const CodecDef* d = g.decodes.front();
      std::printf("%s %s encode=%s:%d decode=%s:%d ops=[%s]\n", kind,
                  entry.first.first.c_str(), e->file.c_str(), e->line,
                  d->file.c_str(), d->line, join(e->ops).c_str());
    } else {
      const CodecDef* only =
          g.encodes.empty() ? g.decodes.front() : g.encodes.front();
      std::printf("unpaired %s %s %s=%s:%d ops=[%s]\n", kind,
                  entry.first.first.c_str(),
                  only->is_encode ? "encode" : "decode", only->file.c_str(),
                  only->line, join(only->ops).c_str());
    }
  }
}

// ------------------------------------------------------------ self test --

int run_self_test(const Linter& linter) {
  std::multiset<std::pair<std::string, std::pair<int, std::string>>> expected;
  for (const SourceFile& f : linter.files())
    for (const auto& [line, rule] : f.expects)
      expected.insert({f.rel_path, {line, rule}});

  std::multiset<std::pair<std::string, std::pair<int, std::string>>> actual;
  for (const Diagnostic& d : linter.diagnostics())
    actual.insert({d.file, {d.line, d.rule}});

  int failures = 0;
  for (const auto& e : expected) {
    if (actual.count(e) < expected.count(e)) {
      std::printf("SELF-TEST MISS: expected %s at %s:%d was not reported\n",
                  e.second.second.c_str(), e.first.c_str(), e.second.first);
      ++failures;
    }
  }
  for (const auto& a : actual) {
    if (expected.count(a) < actual.count(a)) {
      std::printf("SELF-TEST EXTRA: unexpected %s at %s:%d\n",
                  a.second.second.c_str(), a.first.c_str(), a.second.first);
      ++failures;
    }
  }
  if (expected.empty()) {
    std::printf("SELF-TEST: fixture tree carries no EXPECT annotations\n");
    ++failures;
  }
  if (failures == 0) {
    std::printf("self-test OK: %zu expected diagnostics all detected, "
                "no extras, waivers honored\n",
                expected.size());
    return 0;
  }
  std::printf("self-test FAILED: %d mismatches\n", failures);
  return 1;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: dla_lint --root <repo-root> [--self-test] [--jobs N]\n"
      "                [--sarif out.json] [--budget-ms N] [--list-codecs]\n"
      "  Scans <root>/src/**.{h,hpp,cc,cpp} (+ <root>/docs/*.md for the\n"
      "  metrics registry and protocol tables) with a two-pass whole-program\n"
      "  analysis. --jobs 0 = one thread per core. --sarif writes SARIF\n"
      "  2.1.0. --budget-ms fails the run if the scan exceeds the budget.\n"
      "  --list-codecs prints every discovered encode/decode pair.\n"
      "  Exit 0 = clean, 1 = violations/over-budget, 2 = usage/io.\n");
}

}  // namespace
}  // namespace dla_lint

int main(int argc, char** argv) {
  using namespace dla_lint;
  std::string root;
  std::string sarif_path;
  bool self_test = false;
  bool list_codecs = false;
  int jobs = 0;
  long budget_ms = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (arg == "--budget-ms" && i + 1 < argc) {
      budget_ms = std::atol(argv[++i]);
    } else if (arg == "--list-codecs") {
      list_codecs = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      usage();
      return 2;
    }
  }
  if (root.empty()) {
    usage();
    return 2;
  }
  while (root.size() > 1 && root.back() == '/') root.pop_back();
  if (jobs <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    jobs = hw == 0 ? 1 : static_cast<int>(hw > 32 ? 32 : hw);
  }

  const auto t0 = std::chrono::steady_clock::now();
  Linter linter(root, jobs);
  if (!linter.load()) {
    std::fprintf(stderr, "dla_lint: no sources found under %s/src\n",
                 root.c_str());
    return 2;
  }
  linter.run();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  if (!sarif_path.empty()) {
    char resolved[PATH_MAX];
    std::string abs_root =
        realpath(root.c_str(), resolved) != nullptr ? resolved : root;
    if (!write_sarif(sarif_path, abs_root, linter.diagnostics())) {
      std::fprintf(stderr, "dla_lint: cannot write SARIF to %s\n",
                   sarif_path.c_str());
      return 2;
    }
  }

  if (list_codecs) {
    linter.list_codecs();
    return 0;
  }
  if (self_test) return run_self_test(linter);

  for (const Diagnostic& d : linter.diagnostics()) {
    std::printf("%s:%d: error: [%s] %s\n", d.file.c_str(), d.line,
                d.rule.c_str(), d.message.c_str());
  }
  int exit_code = 0;
  if (linter.diagnostics().empty()) {
    std::printf("dla_lint: clean (%zu files, %.1f ms, jobs=%d)\n",
                linter.files().size(), elapsed_ms, jobs);
  } else {
    std::printf("dla_lint: %zu violation(s)\n", linter.diagnostics().size());
    exit_code = 1;
  }
  if (budget_ms > 0 && elapsed_ms > static_cast<double>(budget_ms)) {
    std::printf("dla_lint: BUDGET EXCEEDED: %.1f ms > %ld ms (--budget-ms)\n",
                elapsed_ms, budget_ms);
    exit_code = exit_code == 0 ? 1 : exit_code;
  }
  return exit_code;
}
