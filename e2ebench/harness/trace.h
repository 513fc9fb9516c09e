// Spans recorded by the traced run around the harness's own calls into
// each layer. Spans stay in memory; the run writes them out at its end
// and derives each layer's self time from them.

#ifndef E2EBENCH_HARNESS_TRACE_H_
#define E2EBENCH_HARNESS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;  ///< index of the enclosing span, -1 for a root
    int64_t op = 0;   ///< operation id shared by the spans of one operation
  };

  /// Opens a span nested in the innermost open one; returns its index.
  int Begin(const std::string& name, int64_t op);
  void End(int span);

  const std::vector<Span>& spans() const { return spans_; }
  /// Seconds of each span name's self time (duration minus the part its
  /// child spans cover), summed over all spans of that name.
  std::map<std::string, double> SelfSeconds() const;
  /// Writes one line per span: op,parent,name,start_ns,end_ns.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t op)
      : tracer_(tracer), span_(tracer->Begin(name, op)) {}
  ~ScopedSpan() { tracer_->End(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_TRACE_H_
