// Configuration of the distributed MLE tracker.

#ifndef DSGM_CORE_TRACKER_CONFIG_H_
#define DSGM_CORE_TRACKER_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace dsgm {

/// The four algorithms of the paper (Section VI-A, "Algorithms") plus the
/// Naive-Bayes specialization of NONUNIFORM (Section V).
enum class TrackingStrategy {
  kExactMle,
  kBaseline,
  kUniform,
  kNonUniform,
  kNaiveBayes,
};

const char* ToString(TrackingStrategy strategy);

/// Which distributed-counter protocol backs the approximate strategies.
enum class CounterType {
  /// Randomized Huang-Yi-Zhang sampling counters (the paper's choice,
  /// Lemma 4): O(√k/ε · log C) messages, unbiased, variance (εC)².
  kRandomized,
  /// Deterministic threshold counters (prior art, the paper's reference
  /// [22]): O(k/ε · log C) messages, one-sided deterministic error.
  kDeterministic,
};

const char* ToString(CounterType type);

/// Parses "exact", "baseline", "uniform", "nonuniform"/"non-uniform",
/// "naive-bayes" (case insensitive).
StatusOr<TrackingStrategy> TrackingStrategyFromName(const std::string& name);

/// Largest accepted TrackerConfig::num_sites. The cluster backends run one
/// thread (kThreads) or one connection (kLocalTcp) per site, and both the
/// coordinator and the in-process counters keep state per (counter, site)
/// pair, so the bound keeps a run's threads and memory within one host.
constexpr int kMaxSites = 4096;

/// Knobs of MleTracker. Defaults mirror the paper's evaluation setup
/// (epsilon = 0.1, k = 30 sites).
struct TrackerConfig {
  TrackingStrategy strategy = TrackingStrategy::kNonUniform;
  /// Counter protocol for the approximate strategies (ignored by kExactMle).
  CounterType counter_type = CounterType::kRandomized;
  /// Global approximation factor (Definition 2).
  double epsilon = 0.1;
  /// Number of remote sites receiving stream events, in [1, kMaxSites].
  int num_sites = 30;
  /// Seed for all randomized counter decisions.
  uint64_t seed = 7;
  /// Independent tracker replicas whose estimates are combined by median —
  /// the O(log 1/delta) amplification of Theorem 1. The paper's experiments
  /// (and our defaults) run a single instance.
  int replicas = 1;
  /// Safety constant of the counter round schedule (DESIGN.md section 6).
  double probability_constant = 1.0;
  /// Constant-factor loosening applied to the per-variable error allocation
  /// before it parameterizes the counters: counter epsilon = relaxation *
  /// nu_i. The paper's /16 constants budget for sqrt(8)-sigma Chebyshev
  /// deviations; since sqrt(8)*R/16 < 1 for R <= 5 the e^{±eps} guarantee of
  /// Definition 2 is preserved while counters enter the cheap sampled
  /// regime ~R times earlier. The paper's reported message counts (e.g.
  /// Table III) are only reachable with such a constant; see EXPERIMENTS.md.
  double allocation_relaxation = 4.0;
  /// Optional Laplace smoothing applied at query time:
  /// (A + a) / (B + a * J). 0 reproduces the raw MLE of the paper.
  double laplace_alpha = 0.0;

  Status Validate() const;
};

}  // namespace dsgm

#endif  // DSGM_CORE_TRACKER_CONFIG_H_
