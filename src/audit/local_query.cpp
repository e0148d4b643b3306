#include "audit/local_query.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "audit/metrics.hpp"
#include "logm/set_algebra.hpp"

namespace dla::audit {
namespace {

// ---- column sources ----------------------------------------------------------
//
// The planner below is written once, as templates over a column source. A
// source holds rows in ascending glsn order and offers, per attribute, an
// index handle with column stats, sorted glsn runs for equality and range
// probes, and per-row cell access for the compiled program:
//
//   MemtableSource  a FragmentStore's columnar mirror: AttributeIndex
//                   postings runs and `const Value*` cells;
//   SegmentSource   an immutable mmap'd segment: binary search over the
//                   per-attribute ValueLess order array, and cells decoded
//                   only when a predicate reaches them.
//
// Each source also names the counters the plan's events land in.

// Bounds of a range probe; a null side is unbounded.
struct Bounds {
  const logm::Value* lo = nullptr;
  bool lo_incl = false;
  const logm::Value* hi = nullptr;
  bool hi_incl = false;
};

// What the estimator and the zone-map test read about a non-empty column:
// its present-row count and ValueLess minimum and maximum.
struct ColumnStats {
  std::size_t present = 0;
  const logm::Value* min = nullptr;
  const logm::Value* max = nullptr;
};

class MemtableSource {
 public:
  using Cells = logm::FragmentStore::Column;
  using Index = logm::AttributeIndex;
  // An out-of-range probe costs one postings-map lookup that returns an
  // empty run, so the memtable skips the zone-map step and counts that
  // probe as an index hit.
  static constexpr bool kZoneMaps = false;

  explicit MemtableSource(const logm::FragmentStore& store)
      : store_(store), ctr_(detail::query_engine_counters_mut()) {}

  std::size_t rows() const { return store_.row_count(); }
  logm::Glsn glsn_at(std::size_t row) const { return store_.row_glsns()[row]; }
  std::optional<std::size_t> row_of(logm::Glsn glsn) const {
    return store_.row_of(glsn);
  }

  const Cells* cells(const std::string& attr) const {
    return store_.column(attr);
  }
  const logm::Value* cell(const Cells& col, std::size_t row) const {
    return col.cells[row];
  }

  // nullptr when no row carries the attribute.
  const Index* index(const std::string& attr) const {
    const Index* idx = store_.attr_index(attr);
    return idx != nullptr && idx->rows() > 0 ? idx : nullptr;
  }
  ColumnStats stats(const Index& idx) const {
    return {idx.rows(), idx.min_value(), idx.max_value()};
  }
  std::size_t count_equal(const Index& idx, const logm::Value& v) const {
    const std::vector<logm::Glsn>* run = idx.equal(v);
    return run == nullptr ? 0 : run->size();
  }
  std::vector<logm::Glsn> equal(const Index& idx, const logm::Value& v) const {
    const std::vector<logm::Glsn>* run = idx.equal(v);
    return run == nullptr ? std::vector<logm::Glsn>{} : *run;
  }
  std::vector<logm::Glsn> range(const Index& idx, const Bounds& b) const {
    return idx.range(b.lo, b.lo_incl, b.hi, b.hi_incl);
  }

  // An absent column ended the plan before any probe ran.
  void count_pruned(std::size_t conjuncts) const {
    ctr_.conjuncts_short_circuited += conjuncts;
  }
  // A probe emptied the intersection; `conjuncts` never ran.
  void count_short_circuit(std::size_t conjuncts) const {
    ctr_.conjuncts_short_circuited += conjuncts;
  }
  void count_probe() const { ++ctr_.index_hits; }
  void count_full_scan() const { ++ctr_.planner_fallbacks; }
  void count_rows(std::size_t rows) const { ctr_.rows_scanned += rows; }

 private:
  const logm::FragmentStore& store_;
  QueryEngineCounters& ctr_;
};

class SegmentSource {
 public:
  using Cells = logm::Segment::AttrView;
  using Index = logm::Segment::AttrView;
  static constexpr bool kZoneMaps = true;

  explicit SegmentSource(const logm::Segment& seg)
      : seg_(seg), st_(logm::storage_stats_mut()) {}

  std::size_t rows() const { return seg_.rows(); }
  logm::Glsn glsn_at(std::size_t row) const { return seg_.glsn_at(row); }
  std::optional<std::size_t> row_of(logm::Glsn glsn) const {
    return seg_.row_of(glsn);
  }

  const Cells* cells(const std::string& attr) const { return seg_.attr(attr); }
  // Decodes the row's cell; nullopt when the row lacks the attribute.
  std::optional<logm::Value> cell(const Cells& col, std::size_t row) const {
    const std::optional<std::uint32_t> j =
        seg_.present_pos(col, static_cast<std::uint32_t>(row));
    if (!j) return std::nullopt;
    return seg_.cell_value(col, *j);
  }

  // Segments never store an attribute with zero present rows.
  const Index* index(const std::string& attr) const { return seg_.attr(attr); }
  ColumnStats stats(const Index& idx) const {
    return {idx.present, &idx.min, &idx.max};
  }
  std::size_t count_equal(const Index& idx, const logm::Value& v) const {
    const auto [first, last] = slice(idx, Bounds{&v, true, &v, true});
    return last - first;
  }
  std::vector<logm::Glsn> equal(const Index& idx, const logm::Value& v) const {
    return range(idx, Bounds{&v, true, &v, true});
  }
  std::vector<logm::Glsn> range(const Index& idx, const Bounds& b) const {
    const auto [first, last] = slice(idx, b);
    std::vector<logm::Glsn> out;
    out.reserve(last - first);
    for (std::uint32_t k = first; k < last; ++k) {
      out.push_back(seg_.glsn_at(seg_.row_at(idx, seg_.order_at(idx, k))));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  void count_pruned(std::size_t) const { ++st_.zone_map_skips; }
  void count_short_circuit(std::size_t) const {}
  void count_probe() const { ++st_.segment_probe_hits; }
  void count_full_scan() const {}
  void count_rows(std::size_t rows) const { st_.segment_rows_decoded += rows; }

 private:
  // Order-array positions [first, last) whose cells lie within `b`.
  std::pair<std::uint32_t, std::uint32_t> slice(const Index& idx,
                                                const Bounds& b) const {
    const std::uint32_t first =
        b.lo == nullptr ? 0 : partition_point(idx, *b.lo, !b.lo_incl);
    const std::uint32_t last =
        b.hi == nullptr ? idx.present : partition_point(idx, *b.hi, b.hi_incl);
    return {first, std::max(first, last)};
  }

  // First order-array position whose cell lies above v, or — with
  // `past_equal` false — at or above v.
  std::uint32_t partition_point(const Index& idx, const logm::Value& v,
                                bool past_equal) const {
    const logm::ValueLess less;
    std::uint32_t lo = 0, hi = idx.present;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      const logm::Value cell = seg_.cell_value(idx, seg_.order_at(idx, mid));
      if (past_equal ? !less(v, cell) : less(cell, v)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  const logm::Segment& seg_;
  logm::StorageStats& st_;
};

// ---- compiled program ------------------------------------------------------

// Tri-state row verdict replicating the naive evaluator's exception
// semantics: `evaluate` throws std::out_of_range at the first missing
// attribute it touches and eval_local maps that to "row does not match".
// Missing therefore propagates upward exactly like the exception would —
// And stops at the first non-True child, Or stops at the first True or
// Missing child *in child order* — so compiled results match the scan
// bit-for-bit even on fragments carrying a subset of the attributes.
enum class Tri : std::uint8_t { False, True, Missing };

// Flat compiled program for the conjunction of some conjuncts. Pred leaves
// carry pre-resolved column handles, so per-row evaluation does no string
// hashing, no map lookups and no std::function indirection. The conjuncts
// must outlive the program: Pred leaves alias their rhs constants.
template <class Src>
class Program {
 public:
  Program(const Src& src, std::span<const Expr* const> conjuncts)
      : src_(src) {
    if (conjuncts.size() == 1) {
      root_ = compile(*conjuncts.front());
      return;
    }
    std::vector<std::uint32_t> kids;
    kids.reserve(conjuncts.size());
    for (const Expr* conjunct : conjuncts) kids.push_back(compile(*conjunct));
    root_ = add(Node{.kind = Expr::Kind::And}, kids);
  }

  bool matches(std::size_t row) const { return eval(root_, row) == Tri::True; }

 private:
  struct Node {
    Expr::Kind kind = Expr::Kind::Pred;
    CmpOp op = CmpOp::Eq;
    bool rhs_is_attr = false;
    const typename Src::Cells* lhs = nullptr;
    const typename Src::Cells* rhs = nullptr;
    const logm::Value* rhs_const = nullptr;
    std::uint32_t children_begin = 0;  // into child_idx_
    std::uint32_t children_count = 0;
  };

  std::uint32_t compile(const Expr& expr) {
    Node nd{.kind = expr.kind};
    std::vector<std::uint32_t> kids;
    if (expr.kind == Expr::Kind::Pred) {
      nd.op = expr.pred.op;
      nd.rhs_is_attr = expr.pred.rhs_is_attr;
      nd.lhs = src_.cells(expr.pred.lhs);
      if (expr.pred.rhs_is_attr) {
        nd.rhs = src_.cells(expr.pred.rhs_attr);
      } else {
        nd.rhs_const = &expr.pred.rhs_const;
      }
    } else {
      kids.reserve(expr.children.size());
      for (const Expr& child : expr.children) kids.push_back(compile(child));
    }
    return add(nd, kids);
  }

  std::uint32_t add(Node nd, const std::vector<std::uint32_t>& kids) {
    nd.children_begin = static_cast<std::uint32_t>(child_idx_.size());
    nd.children_count = static_cast<std::uint32_t>(kids.size());
    child_idx_.insert(child_idx_.end(), kids.begin(), kids.end());
    nodes_.push_back(nd);
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  Tri eval(std::uint32_t node, std::size_t row) const {
    const Node& nd = nodes_[node];
    switch (nd.kind) {
      case Expr::Kind::Pred: {
        if (nd.lhs == nullptr) return Tri::Missing;
        const auto lhs = src_.cell(*nd.lhs, row);
        if (!lhs) return Tri::Missing;
        if (!nd.rhs_is_attr) {
          return compare_values(*lhs, nd.op, *nd.rhs_const) ? Tri::True
                                                             : Tri::False;
        }
        if (nd.rhs == nullptr) return Tri::Missing;
        const auto rhs = src_.cell(*nd.rhs, row);
        if (!rhs) return Tri::Missing;
        return compare_values(*lhs, nd.op, *rhs) ? Tri::True : Tri::False;
      }
      case Expr::Kind::And:
        for (std::uint32_t i = 0; i < nd.children_count; ++i) {
          Tri v = eval(child_idx_[nd.children_begin + i], row);
          if (v != Tri::True) return v;
        }
        return Tri::True;
      case Expr::Kind::Or:
        for (std::uint32_t i = 0; i < nd.children_count; ++i) {
          Tri v = eval(child_idx_[nd.children_begin + i], row);
          if (v != Tri::False) return v;
        }
        return Tri::False;
      case Expr::Kind::Not: {
        Tri v = eval(child_idx_[nd.children_begin], row);
        if (v == Tri::Missing) return v;
        return v == Tri::True ? Tri::False : Tri::True;
      }
    }
    throw std::logic_error("local_query: corrupt program");
  }

  const Src& src_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> child_idx_;
  std::uint32_t root_ = 0;
};

// ---- index access paths ----------------------------------------------------

struct Probe {
  CmpOp op = CmpOp::Eq;
  const logm::Value* value = nullptr;  // points into the source Expr
};

// The values one probe selects: equality is the closed [v, v], an ordered
// probe is one-sided. (Ne is never a probe.)
Bounds bounds_of(const Probe& probe) {
  switch (probe.op) {
    case CmpOp::Eq:
      return {probe.value, true, probe.value, true};
    case CmpOp::Gt:
    case CmpOp::Ge:
      return {probe.value, probe.op == CmpOp::Ge, nullptr, false};
    default:
      return {nullptr, false, probe.value, probe.op == CmpOp::Le};
  }
}

// Narrows `into` to its intersection with `b`; on an equivalent bound value
// the strict comparison wins.
void narrow(Bounds& into, const Bounds& b) {
  const logm::ValueLess less;
  if (b.lo != nullptr) {
    if (into.lo == nullptr || less(*into.lo, *b.lo)) {
      into.lo = b.lo;
      into.lo_incl = b.lo_incl;
    } else if (!less(*b.lo, *into.lo)) {
      into.lo_incl = into.lo_incl && b.lo_incl;
    }
  }
  if (b.hi != nullptr) {
    if (into.hi == nullptr || less(*b.hi, *into.hi)) {
      into.hi = b.hi;
      into.hi_incl = b.hi_incl;
    } else if (!less(*into.hi, *b.hi)) {
      into.hi_incl = into.hi_incl && b.hi_incl;
    }
  }
}

// Can some value in the column's [min, max] satisfy `b`?
bool overlaps(const ColumnStats& st, const Bounds& b) {
  const logm::ValueLess less;
  if (b.lo != nullptr &&
      (b.lo_incl ? less(*st.max, *b.lo) : !less(*b.lo, *st.max))) {
    return false;
  }
  return b.hi == nullptr ||
         !(b.hi_incl ? less(*b.hi, *st.min) : !less(*st.min, *b.hi));
}

// One index access path over one attribute: a disjunction of probes (an
// equality or an OR-fan), or — when `probes` is empty — a bounded range
// that same-attribute range conjuncts (`Time >= a AND Time <= b`, the
// BETWEEN shape) fuse into.
template <class Src>
struct AccessPath {
  const typename Src::Index* index = nullptr;
  std::vector<Probe> probes;
  Bounds range;
  double estimate = 0.0;
  std::vector<const Expr*> sources;  // conjuncts folded into this path
};

// A probe may use the index only when the index answer provably matches
// the naive evaluator: constant Eq always; ordered ops only on all-numeric
// columns with numeric probes, because the naive path *throws*
// std::invalid_argument on ordered text-vs-numeric comparisons and that
// throw must propagate identically (so such shapes stay residual). Ne and
// attribute-vs-attribute predicates are never index probes. The column's
// ValueLess maximum is numeric exactly when every value is, because
// numerics sort before text.
template <class Src>
bool indexable(const Src& src, const typename Src::Index& idx,
               const Predicate& pred) {
  if (pred.rhs_is_attr || pred.op == CmpOp::Ne) return false;
  if (pred.op == CmpOp::Eq) return true;
  return pred.rhs_const.is_numeric() && src.stats(idx).max->is_numeric();
}

// An indexable conjunct is a constant predicate on one indexed attribute,
// or an OR-fan of such predicates over the *same* attribute (the shape
// IN-lists desugar to). Same-attribute matters for equivalence: the naive
// OR aborts the whole row when an earlier child hits a missing attribute,
// so a union across different attributes could admit rows the scan rejects.
template <class Src>
std::optional<AccessPath<Src>> make_access_path(const Src& src,
                                                const Expr& conjunct) {
  const bool fan = conjunct.kind == Expr::Kind::Or;
  if (!fan && conjunct.kind != Expr::Kind::Pred) return std::nullopt;
  const std::span<const Expr> preds =
      fan ? std::span<const Expr>(conjunct.children)
          : std::span<const Expr>(&conjunct, 1);
  if (preds.empty() || preds.front().kind != Expr::Kind::Pred) {
    return std::nullopt;
  }
  const std::string& attr = preds.front().pred.lhs;
  AccessPath<Src> path;
  path.index = src.index(attr);
  if (path.index == nullptr) return std::nullopt;
  path.sources.push_back(&conjunct);
  for (const Expr& child : preds) {
    if (child.kind != Expr::Kind::Pred || child.pred.lhs != attr ||
        !indexable(src, *path.index, child.pred)) {
      return std::nullopt;
    }
    path.probes.push_back(Probe{child.pred.op, &child.pred.rhs_const});
  }
  // A lone ordered predicate becomes a range path so same-attribute
  // conjuncts can fuse into one bounded slice before execution.
  if (!fan && path.probes.front().op != CmpOp::Eq) {
    path.range = bounds_of(path.probes.front());
    path.probes.clear();
  }
  return path;
}

// Zone-map test: can any row of the source satisfy the path?
template <class Src>
bool zone_may_match(const Src& src, const AccessPath<Src>& path) {
  const ColumnStats st = src.stats(*path.index);
  if (path.probes.empty()) return overlaps(st, path.range);
  return std::any_of(path.probes.begin(), path.probes.end(),
                     [&](const Probe& p) { return overlaps(st, bounds_of(p)); });
}

// Merges range paths over the same attribute into one bounded [lo, hi]
// slice, so `Time >= a AND Time <= b` executes as one probe instead of two
// broad half-open runs intersected afterwards.
template <class Src>
void fuse_range_paths(std::vector<AccessPath<Src>>& paths) {
  std::vector<AccessPath<Src>> fused;
  fused.reserve(paths.size());
  for (AccessPath<Src>& path : paths) {
    auto host = fused.end();
    if (path.probes.empty()) {
      host = std::find_if(fused.begin(), fused.end(), [&](const auto& f) {
        return f.probes.empty() && f.index == path.index;
      });
    }
    if (host == fused.end()) {
      fused.push_back(std::move(path));
      continue;
    }
    narrow(host->range, path.range);
    host->sources.insert(host->sources.end(), path.sources.begin(),
                         path.sources.end());
  }
  paths = std::move(fused);
}

// Estimated matching rows: exact run sizes for equality probes; for a
// range, both bounds interpolated between the column's min and max
// (equi-width assumption).
template <class Src>
double estimate_rows(const Src& src, const AccessPath<Src>& path) {
  const ColumnStats st = src.stats(*path.index);
  const double rows = static_cast<double>(st.present);
  if (!path.probes.empty()) {
    double sum = 0.0;
    for (const Probe& probe : path.probes) {
      sum += probe.op == CmpOp::Eq
                 ? static_cast<double>(src.count_equal(*path.index, *probe.value))
                 : rows;
    }
    return std::min(sum, rows);
  }
  // Range paths only exist over all-numeric columns with numeric bounds
  // (see indexable), so every as_real() below is defined.
  const double col_lo = st.min->as_real();
  const double col_hi = st.max->as_real();
  if (col_hi <= col_lo) {  // single distinct value: all in or all out
    return overlaps(st, path.range) ? rows : 0.0;
  }
  const double width = col_hi - col_lo;
  const Bounds& b = path.range;
  const double f_lo =
      b.lo ? std::clamp((b.lo->as_real() - col_lo) / width, 0.0, 1.0) : 0.0;
  const double f_hi =
      b.hi ? std::clamp((b.hi->as_real() - col_lo) / width, 0.0, 1.0) : 1.0;
  return std::max(0.0, f_hi - f_lo) * rows;
}

// Sorted glsn run for a path: the range slice, or the union over probes.
template <class Src>
std::vector<logm::Glsn> execute_path(const Src& src,
                                     const AccessPath<Src>& path) {
  if (path.probes.empty()) return src.range(*path.index, path.range);
  std::vector<logm::Glsn> out;
  for (std::size_t i = 0; i < path.probes.size(); ++i) {
    const Probe& probe = path.probes[i];
    std::vector<logm::Glsn> run =
        probe.op == CmpOp::Eq ? src.equal(*path.index, *probe.value)
                              : src.range(*path.index, bounds_of(probe));
    out = i == 0 ? std::move(run) : logm::union_sorted(out, run);
  }
  return out;
}

// An And-level predicate over an attribute no row of the source carries is
// Missing on every row, so the source contributes nothing. Same for an
// OR-fan whose *first* child references one (the Or stops at its first
// Missing child).
template <class Src>
bool references_absent_column(const Src& src,
                              const std::vector<Expr>& conjuncts) {
  for (const Expr& conjunct : conjuncts) {
    const Expr* pred = &conjunct;
    if (conjunct.kind == Expr::Kind::Or && !conjunct.children.empty()) {
      pred = &conjunct.children.front();
    }
    if (pred->kind != Expr::Kind::Pred) continue;
    if (src.index(pred->pred.lhs) == nullptr ||
        (pred->pred.rhs_is_attr && src.index(pred->pred.rhs_attr) == nullptr)) {
      return true;
    }
  }
  return false;
}

// Evaluates the conjunction of `conjuncts` (a normalized subquery) against
// one source and returns the matching glsns ascending: absent-column
// pruning, then access paths and their zone-map test, fusion, intersection
// in order of estimated selectivity, and the residual program over the
// rows that survive.
template <class Src>
std::vector<logm::Glsn> run_plan(const Src& src,
                                 const std::vector<Expr>& conjuncts) {
  if (references_absent_column(src, conjuncts)) {
    src.count_pruned(conjuncts.size());
    return {};
  }

  std::vector<AccessPath<Src>> paths;
  std::vector<const Expr*> residual;
  for (const Expr& conjunct : conjuncts) {
    std::optional<AccessPath<Src>> path = make_access_path(src, conjunct);
    if (!path) {
      residual.push_back(&conjunct);
    } else if (Src::kZoneMaps && !zone_may_match(src, *path)) {
      src.count_pruned(conjuncts.size());
      return {};
    } else {
      paths.push_back(std::move(*path));
    }
  }

  if (paths.empty()) {
    // No index applies: tight full scan with the compiled program.
    src.count_full_scan();
    src.count_rows(src.rows());
    const Program<Src> prog(src, residual);
    std::vector<logm::Glsn> out;
    for (std::size_t r = 0; r < src.rows(); ++r) {
      if (prog.matches(r)) out.push_back(src.glsn_at(r));
    }
    return out;
  }

  fuse_range_paths(paths);
  if (paths.size() > 1) {
    // Most selective first; ties keep conjunct order.
    for (AccessPath<Src>& path : paths) path.estimate = estimate_rows(src, path);
    std::stable_sort(paths.begin(), paths.end(),
                     [](const AccessPath<Src>& a, const AccessPath<Src>& b) {
                       return a.estimate < b.estimate;
                     });
  }

  std::vector<logm::Glsn> current;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (i > 0 &&
        static_cast<double>(current.size()) * 4.0 < paths[i].estimate) {
      // The running intersection is already far smaller than this path's
      // run would be: probing the survivors row-by-row beats materializing
      // and intersecting the big run. Demote the path to a residual.
      residual.insert(residual.end(), paths[i].sources.begin(),
                      paths[i].sources.end());
      continue;
    }
    std::vector<logm::Glsn> run = execute_path(src, paths[i]);
    src.count_probe();
    current = i == 0 ? std::move(run) : logm::intersect_sorted(current, run);
    if (current.empty()) {
      std::size_t skipped = residual.size();
      for (std::size_t j = i + 1; j < paths.size(); ++j) {
        skipped += paths[j].sources.size();
      }
      src.count_short_circuit(skipped);
      return current;
    }
  }
  if (residual.empty()) return current;

  // Compile the residual conjuncts once and probe only the rows that
  // survived the index intersection.
  const Program<Src> prog(src, residual);
  src.count_rows(current.size());
  std::vector<logm::Glsn> out;
  out.reserve(current.size());
  for (logm::Glsn glsn : current) {
    const std::optional<std::size_t> row = src.row_of(glsn);
    if (row && prog.matches(*row)) out.push_back(glsn);
  }
  return out;
}

}  // namespace

std::vector<logm::Glsn> eval_local_scan(const Expr& expr,
                                        const logm::FragmentStore& store) {
  QueryEngineCounters& ctr = detail::query_engine_counters_mut();
  ctr.rows_scanned += store.size();
  return store.select([&](const logm::Fragment& frag) {
    try {
      return evaluate(expr, frag.attrs);
    } catch (const std::out_of_range&) {
      // A fragment missing a referenced attribute simply does not match.
      return false;
    }
  });
}

std::vector<logm::Glsn> eval_local_indexed(const Expr& expr,
                                           const logm::FragmentStore& store) {
  if (!store.indexing()) {
    ++detail::query_engine_counters_mut().planner_fallbacks;
    return eval_local_scan(expr, store);
  }
  return run_plan(MemtableSource(store), to_conjunctive(push_negations(expr)));
}

std::vector<logm::Glsn> eval_engine_scan(const Expr& expr,
                                         const logm::StorageEngine& engine) {
  QueryEngineCounters& ctr = detail::query_engine_counters_mut();
  ctr.rows_scanned += engine.size();
  std::vector<logm::Glsn> out;
  engine.for_each([&](const logm::Fragment& frag) {
    try {
      if (evaluate(expr, frag.attrs)) out.push_back(frag.glsn);
    } catch (const std::out_of_range&) {
      // Missing referenced attribute => non-match, same as eval_local_scan.
    }
  });
  return out;
}

std::vector<logm::Glsn> eval_engine_indexed(const Expr& expr,
                                            const logm::StorageEngine& engine) {
  const logm::SegmentEngine* seg_eng = engine.segment_backend();
  if (seg_eng == nullptr) {
    return eval_local_indexed(expr, engine.memtable());
  }

  // Snapshot: pins the segment list against compaction reclaim for the
  // duration of the evaluation.
  const logm::SegmentEngine::ReadTxn txn = seg_eng->begin_read();
  const logm::FragmentStore& mem = seg_eng->memtable();
  const std::vector<logm::Glsn>& pending = seg_eng->pending_tombstones();

  // Sources newest first: the memtable, then the segments newest to oldest.
  std::vector<logm::Glsn> out = eval_local_indexed(expr, mem);
  const std::vector<Expr> conjuncts = to_conjunctive(push_negations(expr));
  const auto& segs = txn.segments();  // oldest -> newest
  for (std::size_t i = segs.size(); i-- > 0;) {
    for (logm::Glsn g : run_plan(SegmentSource(*segs[i]), conjuncts)) {
      // Shadow subtraction: a newer source owning this glsn — memtable row,
      // pending tombstone, or any newer segment's row/tombstone — makes the
      // older segment's version invisible.
      if (mem.get(g) != nullptr) continue;
      if (std::binary_search(pending.begin(), pending.end(), g)) continue;
      bool shadowed = false;
      for (std::size_t j = i + 1; j < segs.size(); ++j) {
        if (segs[j]->row_of(g) || segs[j]->has_tombstone(g)) {
          shadowed = true;
          break;
        }
      }
      if (!shadowed) out.push_back(g);
    }
  }

  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace dla::audit
