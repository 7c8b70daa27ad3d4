// wht::ExecContext — per-call mutable execution state, owned by the caller.
//
// Every ExecutorBackend is immutable after construction: run()/run_many()
// are const and re-entrant, so one backend — and therefore one
// wht::Transform — can serve any number of threads at once.  The one thing
// a call writes besides the data vector itself is the "instrumented"
// backend's op tallies (the paper's I channel), and they land here.
//
// A context is NOT thread-safe; give each call chain its own.  It is a few
// dozen bytes with no heap state, so context-free calls simply build a
// throwaway one on the stack — pass your own to read the tallies back.
#pragma once

#include "core/instrumented.hpp"

namespace whtlab::api {

class ExecContext {
 public:
  /// Op tallies recorded by the last instrumenting run on this context
  /// since clear_op_counts(); nullptr when none ran.
  const core::OpCounts* last_op_counts() const {
    return has_counts_ ? &counts_ : nullptr;
  }
  void set_op_counts(const core::OpCounts& counts) {
    counts_ = counts;
    has_counts_ = true;
  }
  void clear_op_counts() { has_counts_ = false; }

 private:
  core::OpCounts counts_{};
  bool has_counts_ = false;
};

}  // namespace whtlab::api
