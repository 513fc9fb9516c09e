#include "harness/trace.h"

#include <cstdio>

namespace e2e {

int Tracer::Begin(const std::string& name, int64_t op) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int span) {
  spans_[span].end_ns = NowNs();
  // Spans close in LIFO order (they are scoped).
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op,parent,name,start_ns,end_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%lld,%d,%s,%lld,%lld\n", static_cast<long long>(s.op),
                 s.parent, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace e2e
