// In-memory span recorder for the traced run.
//
// Spans live only in the benchmark: one per op (async: issue -> completion),
// one per Simulator::step() delivery (parent = the enclosing phase), and one
// per timed layer call. They are kept in memory and written out once, at
// exit, so recording costs two clock reads and a vector push.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint32_t kind = 0;   // interned: "phase", "op", "step", "layer"
  std::uint32_t label = 0;  // interned: phase name, op class, message class
  std::int64_t id = -1;     // op id or destination actor; -1 when unused
  std::int32_t parent = -1;  // index of the enclosing span
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  // Reserved up front so recording never reallocates mid-phase.
  Tracer() { spans_.reserve(1u << 20); }

  std::uint32_t intern(const std::string& name) {
    auto [it, inserted] =
        ids_.try_emplace(name, static_cast<std::uint32_t>(names_.size()));
    if (inserted) names_.push_back(name);
    return it->second;
  }

  std::int32_t open(const std::string& kind, const std::string& label,
                    std::int64_t id = -1, std::int32_t parent = -1) {
    spans_.push_back(Span{intern(kind), intern(label), id, parent, now_ns(), 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t span) { spans_[span].end_ns = now_ns(); }
  // Records an already-measured span (hot path: labels pre-interned).
  void add(std::uint32_t kind, std::uint32_t label, std::int64_t id,
           std::int32_t parent, std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back(Span{kind, label, id, parent, start_ns, end_ns});
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::string& name(std::uint32_t id) const { return names_[id]; }

  // Self time of every span: its duration minus its direct children's.
  std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].end_ns - spans_[i].start_ns;
      if (spans_[i].parent >= 0) {
        self[spans_[i].parent] -= spans_[i].end_ns - spans_[i].start_ns;
      }
    }
    return self;
  }

  // One CSV row per span: index,kind,label,id,parent,start_ns,dur_ns,self_ns.
  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<std::int64_t> self = self_ns();
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "index,kind,label,id,parent,start_ns,dur_ns,self_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%s,%s,%lld,%d,%lld,%lld,%lld\n", i,
                   names_[s.kind].c_str(), names_[s.label].c_str(),
                   static_cast<long long>(s.id), s.parent,
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - s.start_ns),
                   static_cast<long long>(self[i]));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::map<std::string, std::uint32_t> ids_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
