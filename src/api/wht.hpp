// The wht:: façade in one include.
//
//   #include "api/wht.hpp"
//   auto t = wht::Planner().strategy(wht::Strategy::kMeasure).threads(4).plan(n);
//   t.execute(x);
//
// `wht` is a namespace alias for whtlab::api; the fine-grained headers
// (planner.hpp, transform.hpp, executor_backend.hpp) remain available for
// include-what-you-use builds.
#pragma once

#include "api/engine.hpp"            // IWYU pragma: export
#include "api/executor_backend.hpp"  // IWYU pragma: export
#include "api/planner.hpp"           // IWYU pragma: export
#include "api/transform.hpp"         // IWYU pragma: export
