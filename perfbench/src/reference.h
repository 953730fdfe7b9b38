// The benchmark's own answer key: exact counts, MLE CPDs and the
// Markov-blanket argmax classifier, computed from a pass over the pushed
// stream with nothing of the program but the network's structure accessors
// (dag parents/children, cardinality, ParentIndexOf). It shares no code
// with MleTracker, CounterLayout or ModelView, so a fault there cannot hide
// in the reference too.

#ifndef DSGM_PERFBENCH_REFERENCE_H_
#define DSGM_PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bayes/network.h"

namespace perfbench {

class Reference {
 public:
  explicit Reference(const dsgm::BayesianNetwork& network);

  /// Adds `weight` occurrences of `x` to the counts.
  void Observe(const dsgm::Instance& x, uint64_t weight);
  /// Turns the counts into MLE CPDs (the uniform 1/J for an unseen parent
  /// row, as the program's estimator does without smoothing).
  void Finalize();

  int64_t rows(int variable) const {
    return static_cast<int64_t>(row_counts_[static_cast<size_t>(variable)].size());
  }
  double Cpd(int variable, int value, int64_t row) const;
  double Joint(const dsgm::Instance& x) const;
  int Predict(int target, const dsgm::Instance& x) const;

  /// Overwrites one CPD entry (the self-test's perturbed models).
  void SetCpd(int variable, int value, int64_t row, double p);

  const dsgm::BayesianNetwork& network() const { return *network_; }

 private:
  const dsgm::BayesianNetwork* network_;
  std::vector<std::vector<uint64_t>> joint_counts_;  // [v][row * J + value]
  std::vector<std::vector<uint64_t>> row_counts_;    // [v][row]
  std::vector<std::vector<double>> cpd_;             // [v][row * J + value]
};

/// The model a check judges: the program's ModelView, or a (perturbed)
/// reference in the self-test.
struct ModelUnderTest {
  std::function<double(int, int, int64_t)> cpd;
  std::function<double(const dsgm::Instance&)> joint;
  std::function<int(int, const dsgm::Instance&)> predict;
};

ModelUnderTest ModelOf(const Reference& reference);

struct HeldOut {
  std::vector<dsgm::Instance> instances;
  std::vector<int> targets;  // the variable each classification query hides
};

struct CheckResult {
  std::string name;
  bool pass = false;
  double value = 0.0;  // the measured figure the check compares
  std::string detail;
};

/// Every CPD entry equals the reference MLE within `tolerance`.
CheckResult CheckCpdsEqual(const Reference& reference, const ModelUnderTest& model,
                           double tolerance);
/// The median over held-out instances of |ln P~(x) / P^(x)| is at most
/// `epsilon`. An instance only one side gives probability 0 counts as an
/// infinite ratio; one both give 0 is skipped.
CheckResult CheckMedianLogRatio(const Reference& reference,
                                const ModelUnderTest& model,
                                const HeldOut& held_out, double epsilon);
/// Predict agrees with the reference classifier on at least `min_share` of
/// the held-out queries.
CheckResult CheckPredictAgreement(const Reference& reference,
                                  const ModelUnderTest& model,
                                  const HeldOut& held_out, double min_share);

/// Shows that each model check passes on the reference itself and rejects
/// a copy with one perturbed CPD entry. Appends one line per check to
/// `report`.
bool SelfTest(const Reference& reference, const HeldOut& held_out,
              double epsilon, double min_share, std::string* report);

}  // namespace perfbench

#endif  // DSGM_PERFBENCH_REFERENCE_H_
