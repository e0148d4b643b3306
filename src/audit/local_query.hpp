// Compiled, selectivity-ordered execution of local subqueries.
//
// `DlaNode::eval_local` used to answer every local subquery (the common case
// after Figure 3's classification) with a full fragment scan, calling the
// interpreted `evaluate()` through a std::function with per-fragment
// std::map attribute lookups. This module lowers the subquery Expr into a
// plan over a column source instead — a FragmentStore's columnar mirror, or
// an immutable segment of the durable engine — with one planner for both:
//
//   1. Normalize (push_negations) and flatten the top-level conjunction.
//   2. A conjunct over an attribute the source does not carry ends the plan
//      empty before any probe.
//   3. Conjuncts whose predicates are constant equality/range comparisons on
//      an indexed attribute (including OR-fans over a single attribute, the
//      shape IN-lists desugar to) become index access paths: sorted glsn
//      runs from the value->postings index or the segment's value-order
//      array. Segments test each path against their zone maps first, and
//      same-attribute ranges fuse into one slice.
//   4. The planner orders access paths by estimated selectivity (exact run
//      sizes for equality, min/max interpolation over the column stats for
//      ranges), intersects the runs with the shared sorted-set algebra, and
//      short-circuits the moment the running intersection empties.
//   5. Everything else is a residual conjunct, compiled once into a flat
//      node program with pre-resolved column handles and evaluated per
//      surviving row — no std::function, no per-row map lookups.
//
// Equivalence contract: the result is bit-identical to the naive scan
// (`select` + `evaluate` with missing-attribute => non-match) on every
// workload, including fragments that carry only a subset of the referenced
// attributes. See docs/QUERY_ENGINE.md for the tri-state semantics that
// makes OR-over-missing-attributes safe, and for which counters each source
// increments.
#pragma once

#include <vector>

#include "audit/query.hpp"
#include "logm/storage_engine.hpp"
#include "logm/store.hpp"

namespace dla::audit {

// Indexed evaluation. Falls back to the scan path (and counts a planner
// fallback) when the store has indexing disabled or no conjunct is
// indexable. Returns glsns sorted ascending.
std::vector<logm::Glsn> eval_local_indexed(const Expr& expr,
                                           const logm::FragmentStore& store);

// The naive scan baseline: full fragment scan through `evaluate`, missing
// attributes treated as non-matching. Exported for differential tests and
// the scan-vs-indexed benchmark; adds the scanned rows to the counters.
std::vector<logm::Glsn> eval_local_scan(const Expr& expr,
                                        const logm::FragmentStore& store);

// Engine-aware evaluation across {memtable + segments} (see docs/STORAGE.md).
// On a MemoryEngine this is exactly eval_local_indexed on the backing store.
// On a SegmentEngine it opens a snapshot read transaction and runs the same
// planner on the memtable and then on each segment newest to oldest,
// subtracting every segment glsn shadowed by a newer source (memtable row,
// pending tombstone, or newer segment row/tombstone). No row is
// materialized to answer a predicate. Bit-identical to eval_engine_scan.
std::vector<logm::Glsn> eval_engine_indexed(const Expr& expr,
                                            const logm::StorageEngine& engine);

// The engine-level oracle: visible-fragment scan through `evaluate` with
// missing-attribute => non-match, mirroring eval_local_scan.
std::vector<logm::Glsn> eval_engine_scan(const Expr& expr,
                                         const logm::StorageEngine& engine);

}  // namespace dla::audit
