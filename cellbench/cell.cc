#include "cell.h"

#include <cstring>
#include <utility>

#include "core/runner.h"
#include "util/check.h"
#include "util/rng.h"

namespace cellbench {

using niid::AggregatorKind;
using niid::AttackKind;
using niid::CodecKind;
using niid::PartitionStrategy;

int CellDraw(uint64_t seed, int cell) {
  return static_cast<int>((kDrawStride * seed + static_cast<uint64_t>(cell)) %
                          kDataDraws);
}

bool MakeWorkload(const std::string& name, int draw, Workload* out) {
  Workload w;
  w.name = name;
  w.draw = draw;
  niid::ExperimentConfig& c = w.config;
  // The draw picks the data. The federation seed (partition, model
  // init, sampling, faults, scenario, codec streams) is fixed, so every seed
  // runs the same federation shape: the same party sizes and load imbalance,
  // the same sampled parties and the same fault plan.
  c.seed = kFederationSeed;
  c.catalog.seed = niid::DeriveStreamSeed(kFederationSeed,
                                          static_cast<uint64_t>(draw));
  c.num_threads = kThreads;
  c.local.batch_size = 32;
  c.local.learning_rate = 0.04f;
  if (name == "silo-cnn") {
    // Table 3 cell: CIFAR-10 x p~Dir(0.5) x FedAvg, SimpleCnn.
    c.dataset = "cifar10";
    c.catalog.size_factor = 0.04;
    c.catalog.min_test_size = 2048;
    c.partition.strategy = PartitionStrategy::kLabelDirichlet;
    c.partition.beta = 0.5;
    c.partition.num_parties = 10;
    c.algorithm = "fedavg";
    c.local.local_epochs = 1;
    w.eval_batch = 128;
    w.rounds = 16;
    w.extra_setups = 2;
  } else if (name == "silo-resnet") {
    // Figure 11 BatchNorm cell: #C=2 x SCAFFOLD, ResNet, on CIFAR-10-shaped
    // (3x32x32, 10 classes) data with the SVHN generator's class separation;
    // with the cifar10 generator a cell this short leaves ResNet near chance
    // and its accuracy differs by seed far more than any bound allows.
    c.dataset = "svhn";
    c.model = "resnet";
    c.catalog.size_factor = 0.004;
    c.catalog.min_train_size = 300;
    c.catalog.min_test_size = 512;
    c.partition.strategy = PartitionStrategy::kLabelQuantity;
    c.partition.labels_per_party = 2;
    c.partition.num_parties = 10;
    c.algorithm = "scaffold";
    c.local.local_epochs = 1;
    c.local.batch_size = 4;
    c.local.learning_rate = 0.02f;
    w.eval_batch = 32;
    w.rounds = 14;
    w.extra_setups = 9;
  } else if (name == "device-robust") {
    // Cross-device Figure 12 shape with the scenario and robust server path:
    // sparse engine, int8 + error feedback, sign-flip adversaries, diurnal
    // availability, drop/straggle faults, trimmed mean. Parties hold 16
    // samples and 30% are sampled per round, so the server path (decode,
    // trimmed mean over ~230 updates, reduction, checkpoints of every
    // party's residual) carries more than half of the cell, and the party
    // table fills within a cell.
    c.dataset = "femnist";
    c.catalog.size_factor = 0.035;
    c.catalog.max_train_size = 12000;
    c.catalog.min_test_size = 4096;
    c.sparse_parties = true;
    c.partition.strategy = PartitionStrategy::kLabelDirichlet;
    c.partition.beta = 0.5;
    c.partition.num_parties = 1000;
    c.partition.cross_device_samples_per_party = 16;
    c.sample_fraction = 0.3;
    c.algorithm = "fedavg";
    c.local.local_epochs = 1;
    // Four local steps of B=4 per party and server momentum (FedAvgM): the
    // accuracy levels off within a cell, so it differs little between draws.
    c.local.batch_size = 4;
    c.local.learning_rate = 0.05f;
    c.algo.server_momentum = 0.9f;
    c.compression.codec = CodecKind::kInt8;
    c.compression.error_feedback = true;
    c.scenario.adversary_fraction = 0.1;
    c.scenario.attack = AttackKind::kSignFlip;
    c.scenario.availability_amplitude = 0.3;
    c.faults.drop_rate = 0.1;
    c.faults.straggle_rate = 0.1;
    c.robust.aggregator = AggregatorKind::kTrimmedMean;
    c.robust.trim_fraction = 0.1;
    w.eval_batch = 256;
    w.rounds = 15;
    w.eval_every = 3;
    w.ckpt_every = 3;
    w.extra_setups = 2;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

BuiltServer BuildWithLibrary(const Workload& w) {
  BuiltServer built;
  built.server = niid::BuildServerForTrial(w.config, /*trial=*/0, &built.test);
  return built;
}

namespace {

/// FNV-1a over the bytes of the final global state.
uint64_t StateChecksum(const niid::StateVector& state) {
  uint64_t hash = 1469598103934665603ULL;
  for (const float v : state) {
    uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      hash ^= (bits >> (8 * b)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

double SinceMs(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

RoundRecord Record(const Workload& w, niid::FederatedServer& server,
                   const niid::RoundStats& stats, double round_ms) {
  RoundRecord r;
  r.round_ms = round_ms;
  r.sampled = static_cast<int64_t>(stats.sampled_clients.size());
  r.aggregated = stats.aggregated;
  r.dropped = stats.dropped;
  r.unavailable = stats.unavailable;
  r.crashed = stats.crashed;
  r.straggled = stats.straggled;
  r.rejected = stats.rejected;
  r.resample_retries = stats.resample_retries;
  r.poisoned = stats.poisoned;
  r.trimmed = stats.trimmed;
  r.quorum_met = stats.quorum_met;
  r.bytes_uplink = stats.bytes_uplink;
  // Which parties sat out is not in RoundStats, so the count is exact only
  // when nobody did (dense) or every party holds the same draw (sparse).
  const int64_t epochs = w.config.local.local_epochs;
  if (server.sparse()) {
    r.trained_samples = (r.sampled - r.dropped - r.unavailable) *
                        w.config.partition.cross_device_samples_per_party *
                        epochs;
  } else {
    NIID_CHECK_EQ(r.dropped + r.unavailable, 0);
    for (const int id : stats.sampled_clients) {
      r.trained_samples += server.client(id).num_samples() * epochs;
    }
  }
  return r;
}

}  // namespace

CellRecord RunCell(const Workload& w, const std::string& ckpt_path,
                   const ServerBuilder& build, Tracer* tracer,
                   const RoundHook& hook) {
  CellRecord cell;
  cell.draw = w.draw;
  Scope cell_span(tracer, "cell", "cell");
  const int64_t cell_start = NowNs();
  int64_t excluded_ns = 0;

  BuiltServer built;
  {
    Scope span(tracer, "setup", "fl");
    const int64_t start = NowNs();
    built = build(w);
    cell.setup_s = SinceMs(start) / 1e3;
  }
  niid::FederatedServer& server = *built.server;

  niid::LocalTrainOptions options = w.config.local;
  options.learning_rate = niid::ResolveLearningRate(w.config);
  niid::StateVector before;
  niid::EvalResult eval;
  for (int round = 0; round < w.rounds; ++round) {
    const bool last = round + 1 == w.rounds;
    if (hook) before = server.global_state();
    niid::RoundStats stats;
    {
      Scope span(tracer, "RunRound", "fl");
      const int64_t start = NowNs();
      stats = server.RunRound(options);
      cell.rounds.push_back(Record(w, server, stats, SinceMs(start)));
    }
    if ((round + 1) % w.eval_every == 0 || last) {
      Scope span(tracer, "EvaluateGlobal", "fl");
      const int64_t start = NowNs();
      eval = server.EvaluateGlobal(built.test, w.eval_batch);
      cell.eval_ms.push_back(SinceMs(start));
      cell.eval_accuracy.push_back(eval.accuracy);
    }
    if (w.ckpt_every > 0 && ((round + 1) % w.ckpt_every == 0 || last)) {
      const int64_t start = NowNs();
      niid::Status written = niid::Status::Ok();
      if (tracer == nullptr) {
        written = server.SaveCheckpoint(ckpt_path);
      } else {
        niid::ServerCheckpoint checkpoint;
        {
          Scope span(tracer, "MakeCheckpoint", "fl");
          checkpoint = server.MakeCheckpoint();
        }
        Scope span(tracer, "WriteCheckpointFile", "fl");
        written = niid::WriteCheckpointFile(checkpoint, ckpt_path);
      }
      cell.ckpt_ms.push_back(SinceMs(start));
      if (!written.ok()) ++cell.ckpt_failed;
    }
    if (hook) {
      Scope span(tracer, "replay", "replay");
      const int64_t start = NowNs();
      hook(server, before, stats);
      excluded_ns += NowNs() - start;
    }
  }
  cell.cell_s =
      static_cast<double>(NowNs() - cell_start - excluded_ns) / 1e9;
  cell.final_accuracy = eval.accuracy;
  cell.final_state = server.global_state();
  cell.checksum = StateChecksum(cell.final_state);
  return cell;
}

}  // namespace cellbench
