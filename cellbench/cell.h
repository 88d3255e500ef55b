#ifndef CELLBENCH_CELL_H_
#define CELLBENCH_CELL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "fl/server.h"
#include "trace.h"

namespace cellbench {

/// Worker threads of every workload (the host's vCPU count the benchmark
/// was sized on).
inline constexpr int kThreads = 4;

/// Seed of every federation stream; the workload seed picks the data draws.
inline constexpr uint64_t kFederationSeed = 1;

/// Nominal length of one cell on the 4-vCPU reference host: a run of
/// --seconds S measures round(S / kCellSeconds) cells, at least one.
inline constexpr double kCellSeconds = 10.0;

/// Every cell trains on one of kDataDraws recorded data draws, so that each
/// cell's final accuracy and state checksum can be checked against a value
/// recorded for its draw, whatever the workload seed. Cell k of a run with
/// workload seed s takes draw (kDrawStride * s + k) mod kDataDraws: seeds
/// 0-19 give runs on disjoint draws at the nominal three cells per run.
inline constexpr int kDataDraws = 60;
inline constexpr int kDrawStride = 3;

/// One benchmark workload: a NIID-Bench cell (dataset x partition x
/// algorithm) run for a fixed number of rounds.
struct Workload {
  std::string name;
  int draw = 0;  ///< data draw the cell trains and evaluates on
  niid::ExperimentConfig config;
  int rounds = 20;       ///< rounds per cell
  int eval_every = 1;    ///< EvaluateGlobal after every k-th round and the last
  int ckpt_every = 0;    ///< SaveCheckpoint after every k-th round and the
                         ///< last; 0 = never
  int eval_batch = 256;  ///< EvaluateGlobal batch size (16 batches per eval)
  /// BuildServerForTrial calls a timed run makes beyond one per cell, so that
  /// setup_s is a median over enough setups even where a setup is short.
  int extra_setups = 0;
};

/// Data draw of cell `cell` of a run with workload seed `seed`: every cell of
/// a run trains on its own data, so per-run accuracy is a mean over cells.
int CellDraw(uint64_t seed, int cell);
/// Builds workload `name` on data draw `draw` (0 <= draw < kDataDraws).
/// Returns false for an unknown name.
bool MakeWorkload(const std::string& name, int draw, Workload* out);

/// Per-round record: RunRound wall time plus the RoundStats counters.
struct RoundRecord {
  double round_ms = 0.0;
  int64_t sampled = 0;
  int64_t aggregated = 0;
  int64_t dropped = 0;
  int64_t unavailable = 0;
  int64_t crashed = 0;
  int64_t straggled = 0;
  int64_t rejected = 0;
  int64_t resample_retries = 0;
  int64_t poisoned = 0;
  int64_t trimmed = 0;
  bool quorum_met = true;
  int64_t bytes_uplink = 0;
  /// Nominal samples trained: dataset size x configured local epochs of the
  /// parties that trained.
  int64_t trained_samples = 0;
};

/// What one cell measured and produced.
struct CellRecord {
  int draw = 0;  ///< the workload's data draw
  double setup_s = 0.0;
  /// Setup, rounds, evals and checkpoints; time spent in the traced run's
  /// round replays is excluded.
  double cell_s = 0.0;
  std::vector<RoundRecord> rounds;
  std::vector<double> eval_ms;
  std::vector<double> eval_accuracy;  ///< one per EvaluateGlobal call
  std::vector<double> ckpt_ms;
  int64_t ckpt_failed = 0;
  double final_accuracy = 0.0;
  uint64_t checksum = 0;  ///< FNV-1a over the final global state's bytes
  niid::StateVector final_state;
};

/// A server ready for round 0 plus its test set.
struct BuiltServer {
  std::unique_ptr<niid::FederatedServer> server;
  niid::Dataset test;
};
using ServerBuilder = std::function<BuiltServer(const Workload&)>;

/// BuildServerForTrial, the path the timed runs measure.
BuiltServer BuildWithLibrary(const Workload& w);

/// Called after round `stats.round` with the global state the round started
/// from; time spent inside is excluded from cell_s.
using RoundHook = std::function<void(niid::FederatedServer&,
                                     const niid::StateVector& before,
                                     const niid::RoundStats& stats)>;

/// Runs one cell: build, `w.rounds` rounds with the configured evals and
/// checkpoints (written to `ckpt_path`). A non-null tracer gets one span per
/// library call; a non-null hook runs after every round.
CellRecord RunCell(const Workload& w, const std::string& ckpt_path,
                   const ServerBuilder& build, Tracer* tracer = nullptr,
                   const RoundHook& hook = nullptr);

}  // namespace cellbench

#endif  // CELLBENCH_CELL_H_
