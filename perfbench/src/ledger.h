// Per-layer replays of the traced run: the workload's inputs pushed
// through each lower module's own public entry points, one layer at a
// time, so each layer's cost per event is measured apart from the others.
//
//   core     MleTracker::Observe
//   monitor  CounterFamily::Increment (the family MleTracker would own)
//   cluster  SiteNode::Run and CoordinatorNode::Run, each on its own thread
//            over loopback channels, timed by thread CPU time
//   net      AppendFrameMaybeCompressed / DecodeFrame on the event batches
//            and bundles of the cluster replay

#ifndef DSGM_PERFBENCH_LEDGER_H_
#define DSGM_PERFBENCH_LEDGER_H_

#include <cstdint>

#include "workload.h"

namespace perfbench {

struct CoreReplay {
  double observe_ns_per_event = 0.0;
  double increment_ns = 0.0;
};

struct ClusterReplay {
  double site_ns_per_event = 0.0;
  double coord_ns_per_report = 0.0;
  double reports_per_event = 0.0;
  double encode_ns_per_frame = 0.0;
  double decode_ns_per_frame = 0.0;
  double frames_per_event = 0.0;
  bool codec_ok = true;  // every frame decoded back to what was encoded
};

CoreReplay ReplayCore(const dsgm::BayesianNetwork& network, const Workload& workload,
                      const Inputs& inputs, uint64_t seed, int64_t events,
                      SpanLog* log);

/// Runs `events` events through k sites and a coordinator. `with_codec`
/// keeps every frame and then encodes and decodes them all.
ClusterReplay ReplayCluster(const dsgm::BayesianNetwork& network,
                            const Workload& workload, const Inputs& inputs,
                            uint64_t seed, int64_t events, bool with_codec,
                            SpanLog* log);

}  // namespace perfbench

#endif  // DSGM_PERFBENCH_LEDGER_H_
