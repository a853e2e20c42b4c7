// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files around calls into the
// library's public functions (nothing inside the library is instrumented).
// Each span has a name, start and end, an optional parent and an optional
// request id shared by the spans of one request. A disabled tracer records
// nothing, so the measured (untraced) runs pay one branch per call site.
// The spans are written once, at the end, as Chrome trace-event JSON.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace pb {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (-1 when disabled); close() ends it.
  int32_t open(const std::string& name, int32_t parent = -1, int64_t req = -1);
  void close(int32_t id);
  /// Records a finished span; returns its id (-1 when disabled).
  int32_t record(const std::string& name, Clock::time_point start,
                 Clock::time_point end, int32_t parent = -1,
                 int64_t req = -1);

  /// Writes Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start, end;
    int32_t parent = -1;
    int64_t req = -1;
    int32_t tid = 0;
  };

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span over a scope.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, int32_t parent = -1,
        int64_t req = -1)
      : t_(t), id_(t.enabled() ? t.open(name, parent, req) : -1) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int32_t id() const { return id_; }

 private:
  Tracer& t_;
  int32_t id_;
};

}  // namespace pb
