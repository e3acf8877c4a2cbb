// In-memory span log: self times and the JSON-lines trace file.

#include <algorithm>
#include <fstream>

#include "e2e.h"

namespace explainti::e2e {

int SpanLog::Add(uint64_t trace_id, const char* name, int64_t start_ns,
                 int64_t end_ns, int parent) {
  spans_.push_back(Span{trace_id, name, start_ns, end_ns, parent});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, std::pair<double, int64_t>> SpanLog::SelfTimesUs()
    const {
  std::vector<std::vector<int>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::map<std::string, std::vector<double>> self;
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to this span.
    cover.clear();
    for (int c : children[i]) {
      const Span& child = spans_[static_cast<size_t>(c)];
      const int64_t lo = std::max(child.start_ns, s.start_ns);
      const int64_t hi = std::min(child.end_ns, s.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[s.name].push_back(
        static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3);
  }
  std::map<std::string, std::pair<double, int64_t>> out;
  for (auto& [name, values] : self) {
    out[name] = {Median(values), static_cast<int64_t>(values.size())};
  }
  return out;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream file(path);
  for (const Span& s : spans_) {
    file << "{\"trace_id\": " << s.trace_id << ", \"name\": \"" << s.name
         << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
         << ", \"parent\": " << s.parent << "}\n";
  }
  return file.good();
}

}  // namespace explainti::e2e
