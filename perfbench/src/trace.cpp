// Span log, self-time roll-up and the small statistics helpers.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "bench.h"

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void Tracer::Merge(const Tracer& other) {
  const auto base = static_cast<std::uint32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent != 0) s.parent += base;
    spans_.push_back(s);
  }
}

std::map<std::string, SelfTime> RollUp(const std::vector<Span>& spans) {
  std::vector<std::vector<std::uint32_t>> children(spans.size());
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent - 1].push_back(i);
  }
  std::map<std::string, SelfTime> out;
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double duration = static_cast<double>(s.end_ns - s.start_ns);
    // Union of the child intervals, clipped to the parent.
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (std::uint32_t c : children[i]) {
      cover.emplace_back(std::max(spans[c].start_ns, s.start_ns),
                         std::min(spans[c].end_ns, s.end_ns));
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [begin, end] : cover) {
      const std::int64_t from = std::max(begin, reach);
      if (end > from) {
        covered += end - from;
        reach = end;
      }
    }
    SelfTime& st = out[s.name];
    ++st.count;
    st.total_ns += duration;
    st.self_ns += duration - static_cast<double>(covered);
  }
  return out;
}

bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const std::map<std::string, SelfTime>& rollup) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%u,\"request\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i + 1, s.parent, static_cast<unsigned long long>(s.request),
                 s.name, static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin));
  }
  for (const auto& [name, st] : rollup) {
    std::fprintf(f,
                 "{\"rollup\":\"%s\",\"count\":%zu,\"total_ns\":%.0f,"
                 "\"self_ns\":%.0f}\n",
                 name.c_str(), st.count, st.total_ns, st.self_ns);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
