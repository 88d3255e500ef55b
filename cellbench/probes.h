#ifndef CELLBENCH_PROBES_H_
#define CELLBENCH_PROBES_H_

#include <string>

#include "cell.h"
#include "json.h"

namespace cellbench {

struct TracedRun {
  CellRecord cell;
  /// Raw per-layer samples keyed by metric name, plus one record per
  /// replayed round under "replays".
  JsonObject layers;
  bool trace_written = false;
};

/// The traced cell. Setup is assembled from the public calls
/// BuildServerForTrial makes, each under its own span; every library call of
/// the round loop gets a span; every round is replayed on
/// copies through RunClient / Encode / Decode / Apply / Aggregate; after the
/// last round the layer probes time each model layer, the loss, the SGD
/// step, Gemm and ThreadPool dispatch. The spans are written to
/// `trace_path` as Chrome trace-event JSON.
TracedRun RunTraced(const Workload& w, const std::string& ckpt_path,
                    const std::string& trace_path);

}  // namespace cellbench

#endif  // CELLBENCH_PROBES_H_
