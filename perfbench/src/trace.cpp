#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

std::atomic<std::uint64_t> g_next_tracer_id{1};

/// Each thread caches the buffer it records into for one tracer; the id
/// (not the address) identifies the tracer, so a later tracer allocated at
/// the same address never inherits a stale buffer.
struct LocalCache {
  std::uint64_t tracer_id = 0;
  SpanBuffer* buffer = nullptr;
};
thread_local LocalCache t_cache;

}  // namespace

Tracer::Tracer() : id_(g_next_tracer_id.fetch_add(1)) {}

std::uint32_t Tracer::intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

SpanBuffer* Tracer::local_buffer() {
  if (t_cache.tracer_id != id_) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<SpanBuffer>());
    buffers_.back()->spans.reserve(1 << 16);
    t_cache = {id_, buffers_.back().get()};
  }
  return t_cache.buffer;
}

Tracer::Scope::Scope(Tracer* tracer, std::uint32_t name,
                     std::uint64_t request) {
  if (tracer == nullptr) return;
  buffer_ = tracer->local_buffer();
  index_ = static_cast<std::int32_t>(buffer_->spans.size());
  buffer_->spans.push_back({name, buffer_->current, now_ns(), 0, request});
  buffer_->current = index_;
}

Tracer::Scope::~Scope() {
  if (buffer_ == nullptr) return;
  Span& span = buffer_->spans[static_cast<std::size_t>(index_)];
  span.end = now_ns();
  buffer_->current = span.parent;
}

std::map<std::string, Tracer::Stats> Tracer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<double>> durations(names_.size());
  std::vector<Stats> out(names_.size());
  for (const auto& buffer : buffers_) {
    const auto& spans = buffer->spans;
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end - s.start);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double d = static_cast<double>(spans[i].end - spans[i].start);
      Stats& st = out[spans[i].name];
      ++st.count;
      st.total_ns += d;
      st.self_ns += d - child_ns[i];
      durations[spans[i].name].push_back(d);
    }
  }
  std::map<std::string, Stats> by_name;
  for (std::size_t id = 0; id < names_.size(); ++id) {
    auto& d = durations[id];
    if (d.empty()) continue;
    const auto mid = d.begin() + static_cast<std::ptrdiff_t>((d.size() - 1) / 2);
    std::nth_element(d.begin(), mid, d.end());
    out[id].median_ns = *mid;
    by_name.emplace(names_[id], out[id]);
  }
  return by_name;
}

std::uint64_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->spans.size();
  return total;
}

bool Tracer::write_csv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "thread,name,start_ns,end_ns,parent,request\n");
  for (std::size_t t = 0; t < buffers_.size(); ++t) {
    for (const Span& s : buffers_[t]->spans) {
      std::fprintf(out, "%zu,%s,%llu,%llu,%d,%llu\n", t,
                   names_[s.name].c_str(),
                   static_cast<unsigned long long>(s.start),
                   static_cast<unsigned long long>(s.end), s.parent,
                   static_cast<unsigned long long>(s.request));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
