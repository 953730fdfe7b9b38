#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <tuple>

namespace perfbench {

using dsgm::BayesianNetwork;
using dsgm::Instance;

Reference::Reference(const BayesianNetwork& network) : network_(&network) {
  const int n = network.num_variables();
  joint_counts_.resize(static_cast<size_t>(n));
  row_counts_.resize(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) {
    int64_t rows = 1;
    for (int parent : network.dag().parents(v)) rows *= network.cardinality(parent);
    row_counts_[static_cast<size_t>(v)].assign(static_cast<size_t>(rows), 0);
    joint_counts_[static_cast<size_t>(v)].assign(
        static_cast<size_t>(rows * network.cardinality(v)), 0);
  }
}

void Reference::Observe(const Instance& x, uint64_t weight) {
  for (int v = 0; v < network_->num_variables(); ++v) {
    const int64_t row = network_->ParentIndexOf(v, x);
    row_counts_[static_cast<size_t>(v)][static_cast<size_t>(row)] += weight;
    joint_counts_[static_cast<size_t>(v)][static_cast<size_t>(
        row * network_->cardinality(v) + x[static_cast<size_t>(v)])] += weight;
  }
}

void Reference::Finalize() {
  cpd_.assign(joint_counts_.size(), {});
  for (size_t v = 0; v < joint_counts_.size(); ++v) {
    const int card = network_->cardinality(static_cast<int>(v));
    std::vector<double>& cpd = cpd_[v];
    cpd.resize(joint_counts_[v].size());
    for (size_t row = 0; row < row_counts_[v].size(); ++row) {
      const uint64_t total = row_counts_[v][row];
      for (int value = 0; value < card; ++value) {
        const size_t cell = row * static_cast<size_t>(card) + static_cast<size_t>(value);
        cpd[cell] = total == 0 ? 1.0 / card
                               : static_cast<double>(joint_counts_[v][cell]) /
                                     static_cast<double>(total);
      }
    }
  }
}

double Reference::Cpd(int variable, int value, int64_t row) const {
  return cpd_[static_cast<size_t>(variable)][static_cast<size_t>(
      row * network_->cardinality(variable) + value)];
}

void Reference::SetCpd(int variable, int value, int64_t row, double p) {
  cpd_[static_cast<size_t>(variable)][static_cast<size_t>(
      row * network_->cardinality(variable) + value)] = p;
}

double Reference::Joint(const Instance& x) const {
  double p = 1.0;
  for (int v = 0; v < network_->num_variables(); ++v) {
    p *= Cpd(v, x[static_cast<size_t>(v)], network_->ParentIndexOf(v, x));
  }
  return p;
}

int Reference::Predict(int target, const Instance& x) const {
  // Definition 4: argmax over the target's values of the Markov-blanket
  // factors; the first value reaching the maximum wins.
  Instance scratch = x;
  int best = 0;
  double best_score = -1.0;
  for (int y = 0; y < network_->cardinality(target); ++y) {
    scratch[static_cast<size_t>(target)] = y;
    double score = Cpd(target, y, network_->ParentIndexOf(target, scratch));
    for (int child : network_->dag().children(target)) {
      score *= Cpd(child, scratch[static_cast<size_t>(child)],
                   network_->ParentIndexOf(child, scratch));
    }
    if (score > best_score) {
      best_score = score;
      best = y;
    }
  }
  return best;
}

ModelUnderTest ModelOf(const Reference& reference) {
  ModelUnderTest model;
  model.cpd = [&reference](int v, int value, int64_t row) {
    return reference.Cpd(v, value, row);
  };
  model.joint = [&reference](const Instance& x) { return reference.Joint(x); };
  model.predict = [&reference](int target, const Instance& x) {
    return reference.Predict(target, x);
  };
  return model;
}

CheckResult CheckCpdsEqual(const Reference& reference, const ModelUnderTest& model,
                           double tolerance) {
  const BayesianNetwork& network = reference.network();
  double worst = 0.0;
  int64_t entries = 0;
  for (int v = 0; v < network.num_variables(); ++v) {
    for (int64_t row = 0; row < reference.rows(v); ++row) {
      for (int value = 0; value < network.cardinality(v); ++value) {
        worst = std::max(worst, std::fabs(model.cpd(v, value, row) -
                                          reference.Cpd(v, value, row)));
        ++entries;
      }
    }
  }
  CheckResult result;
  result.name = "cpd_equal";
  result.value = worst;
  result.pass = worst <= tolerance;
  char detail[128];
  std::snprintf(detail, sizeof(detail), "max |cpd - mle| %.3g over %lld entries (<= %g)",
                worst, static_cast<long long>(entries), tolerance);
  result.detail = detail;
  return result;
}

CheckResult CheckMedianLogRatio(const Reference& reference,
                                const ModelUnderTest& model,
                                const HeldOut& held_out, double epsilon) {
  std::vector<double> ratios;
  ratios.reserve(held_out.instances.size());
  for (const Instance& x : held_out.instances) {
    const double approx = model.joint(x);
    const double exact = reference.Joint(x);
    if (approx <= 0.0 && exact <= 0.0) continue;
    ratios.push_back(approx <= 0.0 || exact <= 0.0
                         ? std::numeric_limits<double>::infinity()
                         : std::fabs(std::log(approx / exact)));
  }
  CheckResult result;
  result.name = "median_log_ratio";
  if (ratios.size() < 1000) {
    result.detail = "fewer than 1000 held-out instances with mass";
    return result;
  }
  std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2, ratios.end());
  result.value = ratios[ratios.size() / 2];
  result.pass = result.value <= epsilon;
  char detail[128];
  std::snprintf(detail, sizeof(detail), "median |ln P~/P^| %.4f over %zu instances (<= %g)",
                result.value, ratios.size(), epsilon);
  result.detail = detail;
  return result;
}

CheckResult CheckPredictAgreement(const Reference& reference,
                                  const ModelUnderTest& model,
                                  const HeldOut& held_out, double min_share) {
  int64_t agree = 0;
  const size_t n = held_out.instances.size();
  for (size_t i = 0; i < n; ++i) {
    const int target = held_out.targets[i];
    agree += model.predict(target, held_out.instances[i]) ==
             reference.Predict(target, held_out.instances[i]);
  }
  CheckResult result;
  result.name = "predict_agreement";
  result.value = n == 0 ? 0.0 : static_cast<double>(agree) / static_cast<double>(n);
  result.pass = n >= 1000 && result.value >= min_share;
  char detail[128];
  std::snprintf(detail, sizeof(detail), "Predict agrees on %lld of %zu (>= %.2f%%)",
                static_cast<long long>(agree), n, 100.0 * min_share);
  result.detail = detail;
  return result;
}

namespace {

using Entry = std::tuple<int, int64_t, int>;  // variable, row, value

/// The CPD entry the most held-out instances use, with its use count.
Entry MostUsedEntry(const Reference& reference, const HeldOut& held_out) {
  const BayesianNetwork& network = reference.network();
  std::map<Entry, int64_t> uses;
  for (const Instance& x : held_out.instances) {
    for (int v = 0; v < network.num_variables(); ++v) {
      ++uses[Entry{v, network.ParentIndexOf(v, x), x[static_cast<size_t>(v)]}];
    }
  }
  return std::max_element(uses.begin(), uses.end(),
                          [](const auto& a, const auto& b) { return a.second < b.second; })
      ->first;
}

/// The CPD entry behind the most reference predictions: zeroing it flips
/// every one of them.
Entry MostPredictedEntry(const Reference& reference, const HeldOut& held_out) {
  const BayesianNetwork& network = reference.network();
  std::map<Entry, int64_t> uses;
  for (size_t i = 0; i < held_out.instances.size(); ++i) {
    const int target = held_out.targets[i];
    Instance x = held_out.instances[i];
    const int predicted = reference.Predict(target, x);
    x[static_cast<size_t>(target)] = predicted;
    ++uses[Entry{target, network.ParentIndexOf(target, x), predicted}];
  }
  return std::max_element(uses.begin(), uses.end(),
                          [](const auto& a, const auto& b) { return a.second < b.second; })
      ->first;
}

bool RejectsPerturbed(const CheckResult& clean, const CheckResult& perturbed,
                      std::string* report) {
  const bool ok = clean.pass && !perturbed.pass;
  *report += "selftest " + clean.name + ": reference " +
             (clean.pass ? "passes" : "FAILS") + ", one perturbed entry " +
             (perturbed.pass ? "PASSES" : "is rejected") + " (" + perturbed.detail +
             ")\n";
  return ok;
}

}  // namespace

bool SelfTest(const Reference& reference, const HeldOut& held_out, double epsilon,
              double min_share, std::string* report) {
  const ModelUnderTest clean = ModelOf(reference);
  bool ok = true;
  {
    Reference bad = reference;
    bad.SetCpd(0, 0, 0, reference.Cpd(0, 0, 0) + 1e-9);
    ok &= RejectsPerturbed(CheckCpdsEqual(reference, clean, 1e-12),
                           CheckCpdsEqual(reference, ModelOf(bad), 1e-12), report);
  }
  {
    const auto [v, row, value] = MostUsedEntry(reference, held_out);
    Reference bad = reference;
    bad.SetCpd(v, value, row, reference.Cpd(v, value, row) / std::exp(1.0));
    ok &= RejectsPerturbed(CheckMedianLogRatio(reference, clean, held_out, epsilon),
                           CheckMedianLogRatio(reference, ModelOf(bad), held_out, epsilon),
                           report);
  }
  {
    const auto [v, row, value] = MostPredictedEntry(reference, held_out);
    Reference bad = reference;
    bad.SetCpd(v, value, row, 0.0);
    ok &= RejectsPerturbed(
        CheckPredictAgreement(reference, clean, held_out, min_share),
        CheckPredictAgreement(reference, ModelOf(bad), held_out, min_share), report);
  }
  return ok;
}

}  // namespace perfbench
