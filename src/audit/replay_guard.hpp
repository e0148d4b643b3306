// Bounded remembered-reply journals and membership sets for at-least-once
// delivery guards.
//
// The chaos layer (net/chaos.hpp) can duplicate any message, so every
// handler that is not idempotent needs a way to recognise a replay without
// remembering every id forever. BoundedJournal is a FIFO-bounded map from a
// request key to the reply (or vote, or outcome) first served for it: a
// duplicate finds the remembered value and replays it instead of re-running
// the handler. ReplayGuard is the same journal with no value — "did we
// already serve this?". Once kJournalCapacity keys are exceeded the oldest
// age out. The capacity only needs to exceed the number of sessions that can
// be in flight concurrently plus the chaos reorder horizon — 4096 is orders
// of magnitude above both for every workload in this repository.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <variant>

namespace dla::audit {

inline constexpr std::size_t kJournalCapacity = 4096;

template <class K, class V>
class BoundedJournal {
 public:
  bool contains(const K& key) const { return entries_.contains(key); }

  // The remembered value; nullptr when the key was never inserted or has
  // aged out.
  V* find(const K& key) {
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
  }

  // Remembers `value` for a key not yet held and returns true; the first
  // insert wins, so a held key keeps its value and this returns false.
  bool insert(const K& key, V value) {
    if (!entries_.try_emplace(key, std::move(value)).second) return false;
    order_.push_back(key);
    if (order_.size() > kJournalCapacity) {
      entries_.erase(order_.front());
      order_.pop_front();
    }
    return true;
  }

 private:
  std::map<K, V> entries_;
  std::deque<K> order_;
};

class ReplayGuard {
 public:
  bool contains(std::uint64_t id) const { return seen_.contains(id); }

  // Returns true when the id was newly inserted (first sight).
  bool insert(std::uint64_t id) { return seen_.insert(id, {}); }

  // Convenience: insert-or-reject in one call. Returns true when the id was
  // seen before (i.e. the caller should drop the message).
  bool check_and_mark(std::uint64_t id) { return !insert(id); }

 private:
  BoundedJournal<std::uint64_t, std::monostate> seen_;
};

}  // namespace dla::audit
