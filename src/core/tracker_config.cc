#include "core/tracker_config.h"

#include <algorithm>
#include <cctype>

namespace dsgm {

const char* ToString(TrackingStrategy strategy) {
  switch (strategy) {
    case TrackingStrategy::kExactMle:
      return "exact";
    case TrackingStrategy::kBaseline:
      return "baseline";
    case TrackingStrategy::kUniform:
      return "uniform";
    case TrackingStrategy::kNonUniform:
      return "non-uniform";
    case TrackingStrategy::kNaiveBayes:
      return "naive-bayes";
  }
  return "unknown";
}

const char* ToString(CounterType type) {
  switch (type) {
    case CounterType::kRandomized:
      return "randomized";
    case CounterType::kDeterministic:
      return "deterministic";
  }
  return "unknown";
}

StatusOr<TrackingStrategy> TrackingStrategyFromName(const std::string& name) {
  std::string key = name;
  std::transform(key.begin(), key.end(), key.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  key.erase(std::remove(key.begin(), key.end(), '-'), key.end());
  key.erase(std::remove(key.begin(), key.end(), '_'), key.end());
  if (key == "exact" || key == "exactmle") return TrackingStrategy::kExactMle;
  if (key == "baseline") return TrackingStrategy::kBaseline;
  if (key == "uniform") return TrackingStrategy::kUniform;
  if (key == "nonuniform") return TrackingStrategy::kNonUniform;
  if (key == "naivebayes" || key == "nb") return TrackingStrategy::kNaiveBayes;
  return NotFoundError("unknown tracking strategy '" + name + "'");
}

Status TrackerConfig::Validate() const {
  if (epsilon <= 0.0 || epsilon >= 1.0) {
    return InvalidArgumentError("epsilon must be in (0, 1)");
  }
  if (num_sites < 1 || num_sites > kMaxSites) {
    return InvalidArgumentError("num_sites must be in [1, " +
                                std::to_string(kMaxSites) + "]");
  }
  if (replicas < 1) return InvalidArgumentError("replicas must be >= 1");
  if (probability_constant <= 0.0) {
    return InvalidArgumentError("probability_constant must be positive");
  }
  if (allocation_relaxation <= 0.0) {
    return InvalidArgumentError("allocation_relaxation must be positive");
  }
  if (laplace_alpha < 0.0) {
    return InvalidArgumentError("laplace_alpha must be non-negative");
  }
  return Status::Ok();
}

}  // namespace dsgm
