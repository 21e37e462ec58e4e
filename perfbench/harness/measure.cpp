#include "measure.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::optional<double> Samples::median() const {
  if (values_.empty()) return std::nullopt;
  std::vector<double> v = values_;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double upper = v[mid];
  const double lower = *std::max_element(v.begin(), v.begin() + mid);
  return (lower + upper) / 2.0;
}

std::optional<double> Samples::percentile(double q) const {
  const std::size_t n = values_.size();
  if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (n - rank < kMinBeyond) return std::nullopt;
  std::vector<double> v = values_;
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  // Child intervals clipped to their parent.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> covered(
      spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::uint64_t lo = std::max(s.start_ns, p.start_ns);
    const std::uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) covered[it->second].emplace_back(lo, hi);
  }

  std::vector<std::uint64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t union_ns = 0;
    std::uint64_t cur_lo = 0;
    std::uint64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) union_ns += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) union_ns += cur_hi - cur_lo;
    const std::uint64_t duration =
        spans[i].end_ns > spans[i].start_ns ? spans[i].end_ns - spans[i].start_ns
                                            : 0;
    out[i] = duration - std::min(duration, union_ns);
  }
  return out;
}

std::uint64_t SpanLog::open() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void SpanLog::close(std::uint64_t id, std::uint64_t parent, const char* name,
                    std::uint64_t start_ns, std::uint64_t end_ns,
                    std::uint64_t job) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{id, parent, name, start_ns, end_ns, job});
}

std::vector<Span> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  const std::vector<Span> spans = snapshot();
  const std::vector<std::uint64_t> self = self_times(spans);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"job\":%llu,\"self_ns\":%llu}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name.c_str(),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.job),
                 static_cast<unsigned long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double InputRng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::vector<std::uint64_t> poisson_schedule(std::uint64_t seed,
                                            double rate_per_s,
                                            std::uint64_t duration_ns) {
  std::vector<std::uint64_t> due;
  if (rate_per_s <= 0.0) return due;
  InputRng rng(seed);
  const double mean_gap_ns = 1e9 / rate_per_s;
  double t = 0.0;
  while (true) {
    t += -std::log1p(-rng.uniform()) * mean_gap_ns;
    if (t >= static_cast<double>(duration_ns)) break;
    due.push_back(static_cast<std::uint64_t>(t));
  }
  return due;
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so it would report the
  // launching process's size when that was larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace perfbench
