// In-memory span recorder for the traced run.
//
// The benchmark opens a Scope around each call it makes into a layer's
// public API.  A span holds its name, start, end, parent (the enclosing
// Scope on the same thread) and a request id.  Spans stay in per-thread
// buffers until the run ends; then stats() aggregates them by name and
// write_csv() dumps them.  A null Tracer makes every Scope a no-op, which
// is how the untraced run pays nothing.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

std::uint64_t now_ns();

struct SpanBuffer;

class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;  ///< index in the same thread's buffer
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint64_t request = 0;
  };

  /// Aggregate over every span of one name.
  struct Stats {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;    ///< total minus time covered by child spans
    double median_ns = 0.0;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Interned id for a span name (takes a lock; hoist out of hot loops).
  std::uint32_t intern(const std::string& name);

  /// RAII span.  With a null tracer it does nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, std::uint32_t name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanBuffer* buffer_ = nullptr;
    std::int32_t index_ = -1;
  };

  /// Aggregates by name.  Call only after every recording thread joined.
  std::map<std::string, Stats> stats() const;
  std::uint64_t span_count() const;

  /// One line per span: thread,name,start_ns,end_ns,parent,request.
  bool write_csv(const std::string& path) const;

 private:
  friend class Scope;
  SpanBuffer* local_buffer();

  const std::uint64_t id_;
  mutable std::mutex mutex_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<std::string> names_;
  std::deque<std::unique_ptr<SpanBuffer>> buffers_;
};

struct SpanBuffer {
  std::vector<Tracer::Span> spans;
  std::int32_t current = -1;  ///< innermost open span on this thread
};

}  // namespace perfbench
