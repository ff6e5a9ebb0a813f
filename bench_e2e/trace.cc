#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace bench_e2e {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Samples::Quantile(double q) const {
  if (us_.empty()) return 0;
  std::vector<double> sorted = us_;
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  std::nth_element(sorted.begin(), sorted.begin() + rank, sorted.end());
  return sorted[rank];
}

int32_t Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, NowNs(), 0, parent});
  int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  if (id < 0) return;
  spans_[id].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::AddPhase(int32_t id, const std::string& name, uint64_t us) {
  if (id >= 0) phases_.push_back(Phase{id, name, us});
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::vector<double> covered(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      covered[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  std::map<std::string, Totals> out;
  for (const Phase& p : phases_) {
    covered[p.span] += static_cast<double>(p.us);
    Totals& t = out["phase." + p.name];
    t.count++;
    t.total_us += static_cast<double>(p.us);
    t.self_us += static_cast<double>(p.us);
  }
  for (size_t i = 0; i < spans_.size(); i++) {
    const double us =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e3;
    Totals& t = out[spans_[i].name];
    t.count++;
    t.total_us += us;
    t.self_us += us - covered[i];
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"parent\":%d}\n",
                 i, s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.parent);
  }
  for (const Phase& p : phases_)
    std::fprintf(f, "{\"phase\":\"%s\",\"us\":%llu,\"parent\":%d}\n",
                 p.name.c_str(), static_cast<unsigned long long>(p.us), p.span);
  return std::fclose(f) == 0;
}

}  // namespace bench_e2e
