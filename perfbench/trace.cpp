#include "trace.h"

#include <atomic>
#include <cstdio>

namespace pb {

namespace {

int32_t thread_index() {
  static std::atomic<int32_t> next{0};
  thread_local const int32_t id = next++;
  return id;
}

}  // namespace

int32_t Tracer::open(const std::string& name, int32_t parent, int64_t req) {
  if (!enabled_) return -1;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, now, now, parent, req, thread_index()});
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::close(int32_t id) {
  if (id < 0) return;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = now;
}

int32_t Tracer::record(const std::string& name, Clock::time_point start,
                       Clock::time_point end, int32_t parent, int64_t req) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start, end, parent, req, thread_index()});
  return static_cast<int32_t>(spans_.size() - 1);
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts =
        std::chrono::duration<double, std::micro>(s.start - origin_).count();
    const double dur =
        std::chrono::duration<double, std::micro>(s.end - s.start).count();
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"req\": %lld}}%s\n",
                 s.name.c_str(), s.tid, ts, dur, i, s.parent,
                 static_cast<long long>(s.req),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace pb
