#include "api/transform.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

namespace whtlab::api {

const char* to_string(Strategy strategy) {
  switch (strategy) {
    case Strategy::kEstimate:
      return "estimate";
    case Strategy::kMeasure:
      return "measure";
    case Strategy::kExhaustive:
      return "exhaustive";
    case Strategy::kSampled:
      return "sampled";
    case Strategy::kAnneal:
      return "anneal";
    case Strategy::kFixed:
      return "fixed";
  }
  return "unknown";
}

Strategy strategy_from_string(const std::string& name) {
  for (const Strategy strategy :
       {Strategy::kEstimate, Strategy::kMeasure, Strategy::kExhaustive,
        Strategy::kSampled, Strategy::kAnneal, Strategy::kFixed}) {
    if (name == to_string(strategy)) return strategy;
  }
  throw std::invalid_argument(
      "unknown strategy '" + name +
      "' (valid: estimate, measure, exhaustive, sampled, anneal, fixed)");
}

Transform::Transform(core::Plan plan, std::unique_ptr<ExecutorBackend> backend,
                     PlanningInfo info)
    : plan_(std::move(plan)),
      backend_(std::move(backend)),
      backend_name_(backend_->name()),
      info_(std::move(info)) {}

void Transform::ensure_valid() const {
  if (!valid()) throw std::logic_error("wht::Transform: not planned");
}

void Transform::execute(double* x) const { execute(x, 1); }

void Transform::execute(double* x, std::ptrdiff_t stride) const {
  ensure_valid();
  if (stride == 0) throw std::invalid_argument("Transform: stride must be nonzero");
  backend_->run(plan_, x, stride);
}

void Transform::execute_many(double* x, std::size_t count) const {
  execute_many(x, count, static_cast<std::ptrdiff_t>(size()));
}

void Transform::execute_many(double* x, std::size_t count,
                             std::ptrdiff_t dist) const {
  ensure_valid();
  const auto span = static_cast<std::ptrdiff_t>(size());
  if (dist > -span && dist < span) {
    throw std::invalid_argument(
        "Transform: |dist| must be >= size() so batch vectors do not overlap");
  }
  backend_->run_many(plan_, x, count, dist);
}

void Transform::execute_copy(const double* in, double* out) const {
  ensure_valid();
  if (out != in) std::memcpy(out, in, size() * sizeof(double));
  backend_->run(plan_, out);
}

std::vector<double> Transform::apply(const std::vector<double>& in) const {
  ensure_valid();
  if (in.size() != size()) {
    throw std::invalid_argument("Transform: input length " +
                                std::to_string(in.size()) + " != transform size " +
                                std::to_string(size()));
  }
  std::vector<double> out(in);
  backend_->run(plan_, out.data());
  return out;
}

perf::MeasureResult Transform::measure(const perf::MeasureOptions& options) const {
  ensure_valid();
  return measure_with_backend(*backend_, plan_, options);
}

}  // namespace whtlab::api
