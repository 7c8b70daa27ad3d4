// Seeded open-loop load: Poisson arrivals (exponential gaps) and the
// backlog test that decides whether an offered rate is sustained.
//
// Requests are timed from their *intended* send time, so a stall that
// delays later sends is charged to those requests, and the generator's own
// lateness (actual minus intended send time) is reported separately.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

/// Intended send offsets in ns from the start of the window: a Poisson
/// process of `rate_per_s` over `seconds`, fully determined by `seed`.
inline std::vector<std::uint64_t> poisson_schedule(double rate_per_s,
                                                   double seconds,
                                                   std::uint64_t seed) {
  std::vector<std::uint64_t> out;
  if (rate_per_s <= 0.0 || seconds <= 0.0) return out;
  whtlab::util::Rng rng(seed);
  const double end_ns = seconds * 1e9;
  const double mean_gap_ns = 1e9 / rate_per_s;
  out.reserve(static_cast<std::size_t>(rate_per_s * seconds * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) * mean_gap_ns;
    if (t >= end_ns) break;
    out.push_back(static_cast<std::uint64_t>(t));
  }
  return out;
}

/// Never-completed requests carry this completion time.
inline constexpr std::uint64_t kNeverCompleted =
    std::numeric_limits<std::uint64_t>::max();

/// Backlog seen by each arrival: how many earlier arrivals had not
/// completed at its intended send time.  `intended` must be sorted;
/// `completed[i]` is the completion time of the request sent at
/// `intended[i]` (kNeverCompleted if it never completed).
inline std::vector<std::uint64_t> backlog_series(
    const std::vector<std::uint64_t>& intended,
    std::vector<std::uint64_t> completed) {
  std::sort(completed.begin(), completed.end());
  std::vector<std::uint64_t> out(intended.size());
  std::size_t done = 0;
  for (std::size_t i = 0; i < intended.size(); ++i) {
    while (done < completed.size() && completed[done] <= intended[i]) ++done;
    out[i] = i > done ? i - done : 0;
  }
  return out;
}

/// The backlog grows when the median backlog seen by arrivals in the last
/// quarter of the window exceeds twice the first quarter's plus `slack`
/// requests.  A sustained rate keeps the backlog level; an unsustained one
/// makes it climb for as long as the window lasts.  Medians, not means, so
/// one short stall inside a quarter does not count as growth.
inline bool backlog_grows(const std::vector<std::uint64_t>& series,
                          double slack = 4.0) {
  const std::size_t quarter = series.size() / 4;
  if (quarter == 0) return false;
  auto quarter_median = [&](std::size_t begin) {
    std::vector<std::uint64_t> q(series.begin() + static_cast<std::ptrdiff_t>(begin),
                                 series.begin() + static_cast<std::ptrdiff_t>(begin + quarter));
    std::nth_element(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(quarter / 2), q.end());
    return static_cast<double>(q[quarter / 2]);
  };
  return quarter_median(series.size() - quarter) > 2.0 * quarter_median(0) + slack;
}

}  // namespace perfbench
