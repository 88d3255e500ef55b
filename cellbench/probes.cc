#include "probes.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/runner.h"
#include "data/catalog.h"
#include "fl/compress.h"
#include "fl/faults.h"
#include "fl/robust.h"
#include "fl/scenario.h"
#include "fl/shard.h"
#include "fl/workspace.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "partition/lazy_index.h"
#include "partition/partition.h"
#include "tensor/gemm.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cellbench {
namespace {

using niid::Dataset;
using niid::FederatedServer;
using niid::StateVector;

/// Raw samples per metric name; run.py reduces each list to its median.
using Samples = std::map<std::string, std::vector<double>>;

double MsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

int64_t ThreadTag() {
  return static_cast<int64_t>(
             std::hash<std::thread::id>{}(std::this_thread::get_id()) % 997) +
         1;
}

/// What the traced setup keeps beside the server for the replays and probes.
struct Assembly {
  niid::ModelFactory factory;
  niid::ServerConfig server_config;
  std::shared_ptr<niid::LazyPartitionIndex> source;  ///< sparse engine only
  Dataset eval_batch;  ///< the first eval batch of the test set
};

/// BuildServerForTrial(config, trial = 0), one span per public call.
BuiltServer Assemble(const Workload& w, Tracer* tracer, Samples& s,
                     Assembly& keep) {
  const niid::ExperimentConfig& config = w.config;
  niid::FederatedDataset data;
  {
    Scope span(tracer, "MakeCatalogDataset", "data");
    const int64_t start = NowNs();
    auto data_or = niid::MakeCatalogDataset(config.dataset, config.catalog);
    NIID_CHECK(data_or.ok()) << data_or.status().ToString();
    data = std::move(*data_or);
    s["data.synth_ms"].push_back(MsBetween(start, NowNs()));
  }
  // Every workload is an image task, so the tabular standardization step of
  // BuildServerForTrial never applies.
  NIID_CHECK(data.train.is_image());

  niid::ModelSpec spec = niid::DefaultModelSpec(data.train, config.model);
  spec.resnet_blocks_per_stage = config.resnet_blocks_per_stage;
  keep.factory = niid::MakeModelFactory(spec);

  niid::PartitionConfig partition_config = config.partition;
  partition_config.seed = config.seed;

  auto algorithm_or = niid::CreateAlgorithm(config.algorithm, config.algo);
  NIID_CHECK(algorithm_or.ok()) << algorithm_or.status().ToString();

  niid::ServerConfig& sc = keep.server_config;
  sc.sample_fraction = config.sample_fraction;
  sc.seed = config.seed;
  sc.num_threads = config.num_threads;
  sc.dp = config.dp;
  sc.min_local_epochs = config.min_local_epochs;
  sc.skew_aware_sampling = config.skew_aware_sampling;
  sc.faults = config.faults;
  sc.min_aggregate_clients = config.min_aggregate_clients;
  sc.max_resample_retries = config.max_resample_retries;
  sc.max_update_norm = config.max_update_norm;
  sc.compression = config.compression;
  sc.num_shards = config.num_shards;
  sc.scenario = config.scenario;
  if (sc.scenario.num_classes == 0) {
    sc.scenario.num_classes = data.train.num_classes;
  }
  sc.robust = config.robust;

  std::vector<int64_t> head(static_cast<size_t>(
      std::min<int64_t>(w.eval_batch, data.test.size())));
  for (size_t i = 0; i < head.size(); ++i) head[i] = static_cast<int64_t>(i);
  keep.eval_batch = niid::Subset(data.test, head);

  BuiltServer built;
  if (config.sparse_parties) {
    sc.party_stream_seed = config.seed;
    built.test = std::move(data.test);
    {
      Scope span(tracer, "LazyPartitionIndex", "partition");
      const int64_t start = NowNs();
      keep.source = std::make_shared<niid::LazyPartitionIndex>(
          std::move(data.train), partition_config);
      s["partition.build_ms"].push_back(MsBetween(start, NowNs()));
    }
    Scope span(tracer, "FederatedServer", "fl");
    const int64_t start = NowNs();
    built.server = std::make_unique<FederatedServer>(
        keep.factory, keep.source, std::move(*algorithm_or), sc);
    s["fl.server_init_ms"].push_back(MsBetween(start, NowNs()));
    return built;
  }

  niid::Partition partition;
  {
    Scope span(tracer, "MakePartition", "partition");
    const int64_t start = NowNs();
    partition = niid::MakePartition(data.train, partition_config);
    s["partition.build_ms"].push_back(MsBetween(start, NowNs()));
  }
  niid::Rng setup_rng(config.seed);
  std::vector<std::unique_ptr<niid::Client>> clients;
  for (int i = 0; i < partition.num_parties(); ++i) {
    niid::Rng client_rng = setup_rng.Split();
    Scope span(tracer, "MaterializeClientDataset", "partition");
    const int64_t start = NowNs();
    Dataset local =
        niid::MaterializeClientDataset(data.train, partition, i, client_rng);
    s["partition.materialize_us_per_party"].push_back(
        MsBetween(start, NowNs()) * 1e3);
    clients.push_back(std::make_unique<niid::Client>(i, std::move(local),
                                                     client_rng.Split()));
  }
  built.test = std::move(data.test);
  Scope span(tracer, "FederatedServer", "fl");
  const int64_t start = NowNs();
  built.server = std::make_unique<FederatedServer>(
      keep.factory, std::move(clients), std::move(*algorithm_or), sc);
  s["fl.server_init_ms"].push_back(MsBetween(start, NowNs()));
  return built;
}

/// Replays a finished round's sampled parties on copies: its own algorithm
/// instance, workspaces, clients, codec, robust rule and reducer, so the
/// server's state is never touched. Party assignment (availability, faults,
/// label transforms, poisoning) follows RunRound's rules, which are pure
/// functions of (round, party).
class Replayer {
 public:
  Replayer(const Workload& w, const Assembly& a, FederatedServer& server,
           Tracer* tracer, Samples& s)
      : a_(a),
        tracer_(tracer),
        s_(s),
        pool_(kThreads),
        workspaces_(a.factory, kThreads),
        fault_plan_(a.server_config.faults, a.server_config.seed),
        scenario_plan_(a.server_config.scenario, a.server_config.seed) {
    auto algorithm_or =
        niid::CreateAlgorithm(w.config.algorithm, w.config.algo);
    NIID_CHECK(algorithm_or.ok()) << algorithm_or.status().ToString();
    algorithm_ = std::move(*algorithm_or);
    const int64_t state_size =
        static_cast<int64_t>(server.global_state().size());
    algorithm_->Initialize(server.num_clients(), state_size);
    if (a.server_config.compression.enabled()) {
      codec_ = std::make_unique<niid::UpdateCodec>(
          a.server_config.compression, a.server_config.seed, server.layout(),
          state_size);
    }
    auto robust_or = niid::CreateRobustAggregator(a.server_config.robust);
    NIID_CHECK(robust_or.ok()) << robust_or.status().ToString();
    robust_ = std::move(*robust_or);
    reducer_.Configure(a.server_config.num_shards, &pool_,
                       server.num_clients());
    if (!server.sparse()) {
      for (int i = 0; i < server.num_clients(); ++i) {
        const niid::Rng rng(niid::DeriveStreamSeed(
            w.config.seed, static_cast<uint64_t>(i)));
        clients_.push_back(
            std::make_unique<niid::Client>(i, server.client(i).data(), rng));
      }
    }
  }

  int last_task_count() const { return last_task_count_; }
  const std::vector<JsonObject>& records() const { return records_; }

  void Replay(FederatedServer& server, const StateVector& before,
              const niid::RoundStats& stats,
              const niid::LocalTrainOptions& base);

 private:
  struct Work {
    int id = -1;
    bool crash = false;
    niid::LocalTrainOptions options;
  };
  std::vector<Work> Assign(const niid::RoundStats& stats,
                           const niid::LocalTrainOptions& base) const;

  const Assembly& a_;
  Tracer* tracer_;
  Samples& s_;
  niid::ThreadPool pool_;
  niid::WorkspacePool workspaces_;
  niid::FaultPlan fault_plan_;
  niid::ScenarioPlan scenario_plan_;
  std::unique_ptr<niid::FlAlgorithm> algorithm_;
  std::unique_ptr<niid::UpdateCodec> codec_;
  std::unique_ptr<niid::RobustAggregator> robust_;
  niid::ShardReducer reducer_;
  std::vector<std::unique_ptr<niid::Client>> clients_;  ///< dense copies
  std::vector<std::unique_ptr<niid::Client>> slots_;    ///< sparse shells
  std::vector<JsonObject> records_;
  int last_task_count_ = 0;
};

std::vector<Replayer::Work> Replayer::Assign(
    const niid::RoundStats& stats, const niid::LocalTrainOptions& base) const {
  const niid::ScenarioConfig& scenario = a_.server_config.scenario;
  std::vector<Work> work;
  for (const int id : stats.sampled_clients) {
    if (scenario.gates_availability() &&
        !scenario_plan_.Available(stats.round, id)) {
      continue;
    }
    Work item;
    item.id = id;
    item.options = base;
    niid::FaultDecision decision;
    if (fault_plan_.enabled()) decision = fault_plan_.Decide(stats.round, id);
    if (decision.type == niid::FaultType::kDrop) continue;
    item.crash = decision.type == niid::FaultType::kCrash;
    if (item.crash || decision.type == niid::FaultType::kStraggle) {
      item.options.local_epochs = std::max(
          1, static_cast<int>(decision.work_fraction * base.local_epochs));
    }
    if (item.crash) item.options.keep_local_buffers = false;
    if (scenario_plan_.enabled()) {
      const int generation = scenario_plan_.DriftGeneration(stats.round, id);
      const bool flip = scenario.attack == niid::AttackKind::kLabelFlip &&
                        scenario_plan_.IsAdversary(id);
      if (generation > 0 || flip) {
        item.options.scenario = &scenario_plan_;
        item.options.drift_generation = generation;
        item.options.flip_labels = flip;
      }
    }
    work.push_back(item);
  }
  return work;
}

void Replayer::Replay(FederatedServer& server, const StateVector& before,
                      const niid::RoundStats& stats,
                      const niid::LocalTrainOptions& base) {
  NIID_CHECK_EQ(stats.resample_retries, 0)
      << "replay covers the first sampling attempt only";
  const std::vector<Work> work = Assign(stats, base);
  const size_t n = work.size();
  last_task_count_ = static_cast<int>(n);
  std::vector<int> ids;
  for (const Work& item : work) ids.push_back(item.id);
  algorithm_->PrepareClients(ids);
  while (server.sparse() && slots_.size() < n) {
    slots_.push_back(std::make_unique<niid::Client>(-1, niid::Rng(0)));
  }
  const bool error_feedback =
      codec_ && a_.server_config.compression.error_feedback;
  std::vector<niid::LocalUpdate> updates(n);
  std::vector<niid::EncodedDelta> payloads(n);
  std::vector<StateVector> residuals(
      error_feedback ? n : 0, StateVector(before.size(), 0.f));
  std::vector<int64_t> t_start(n), t_data(n), t_train(n), t_encode(n),
      thread(n);

  const int64_t train_start = NowNs();
  niid::ParallelFor(&pool_, static_cast<int64_t>(n), [&](int64_t slot) {
    niid::WorkspaceLease lease(workspaces_);
    const Work& item = work[slot];
    t_start[slot] = NowNs();
    thread[slot] = ThreadTag();
    niid::Client& client =
        server.sparse() ? *slots_[slot] : *clients_[item.id];
    if (server.sparse()) {
      client.Rebind(item.id);
      a_.source->MaterializeParty(item.id, client.mutable_data());
    }
    t_data[slot] = NowNs();
    if (item.crash) {
      updates[slot] = client.Train(*lease, before, item.options);
    } else {
      updates[slot] =
          algorithm_->RunClient(client, *lease, before, item.options);
      if (scenario_plan_.enabled() && scenario_plan_.IsAdversary(item.id)) {
        scenario_plan_.Poison(stats.round, item.id, updates[slot]);
      }
    }
    t_train[slot] = NowNs();
    if (codec_ && !item.crash) {
      codec_->Encode(stats.round, item.id, updates[slot].delta,
                     error_feedback ? &residuals[slot] : nullptr,
                     lease->codec_scratch, payloads[slot]);
    }
    t_encode[slot] = NowNs();
  });
  const int64_t train_end = NowNs();

  std::vector<double> task_ms;
  for (size_t i = 0; i < n; ++i) {
    if (server.sparse()) {
      tracer_->AddClosed("MaterializeParty", "partition", t_start[i], t_data[i],
                         thread[i]);
      s_["partition.materialize_us_per_party"].push_back(
          MsBetween(t_start[i], t_data[i]) * 1e3);
    }
    tracer_->AddClosed("RunClient", "fl", t_data[i], t_train[i], thread[i]);
    s_["fl.train_ms_per_party"].push_back(MsBetween(t_data[i], t_train[i]));
    if (codec_ && !work[i].crash) {
      tracer_->AddClosed("Encode", "fl", t_train[i], t_encode[i], thread[i]);
      s_["fl.encode_us_per_update"].push_back(
          MsBetween(t_train[i], t_encode[i]) * 1e3);
    }
    task_ms.push_back(MsBetween(t_start[i], t_encode[i]));
  }

  // Serial server phase, as RunRound orders it: decode and validate in slot
  // order, then the robust rule, then the algorithm's sharded aggregate.
  const int64_t serial_start = NowNs();
  std::vector<niid::LocalUpdate> survivors;
  niid::CodecScratch scratch;
  for (size_t i = 0; i < n; ++i) {
    if (work[i].crash) continue;
    if (codec_) {
      Scope span(tracer_, "Decode", "fl");
      const int64_t start = NowNs();
      const niid::Status decoded = codec_->Decode(
          stats.round, work[i].id, payloads[i], updates[i].delta, scratch);
      s_["fl.decode_us_per_update"].push_back(MsBetween(start, NowNs()) * 1e3);
      if (!decoded.ok()) continue;
    }
    if (!niid::ValidateUpdate(updates[i], a_.server_config.max_update_norm)
             .ok()) {
      continue;
    }
    survivors.push_back(std::move(updates[i]));
  }
  double robust_ms = 0.0;
  if (a_.server_config.robust.enabled()) {
    Scope span(tracer_, "RobustAggregator::Apply", "fl");
    const int64_t start = NowNs();
    (void)robust_->Apply(survivors, &pool_);
    robust_ms = MsBetween(start, NowNs());
  }
  StateVector global = before;
  double aggregate_ms = 0.0;
  {
    Scope span(tracer_, "Aggregate", "fl");
    const int64_t start = NowNs();
    algorithm_->Aggregate(global, survivors, server.layout(), reducer_);
    aggregate_ms = MsBetween(start, NowNs());
  }
  const int64_t serial_end = NowNs();

  if (a_.server_config.robust.enabled()) {
    s_["fl.robust_ms_per_round"].push_back(robust_ms);
  }
  s_["fl.aggregate_ms_per_round"].push_back(aggregate_ms);
  JsonObject record;
  record.Int("round", stats.round)
      .Num("train_wall_ms", MsBetween(train_start, train_end))
      .Num("serial_ms", MsBetween(serial_start, serial_end))
      .Array("task_ms", task_ms);
  records_.push_back(record);
}

const char* LayerKind(const niid::Module& layer) {
  const std::string name = layer.Name();
  if (name == "Conv2d") return "conv";
  if (name == "Linear") return "linear";
  if (name == "BatchNorm") return "bn";
  if (name == "ReLU") return "act";
  if (name == "ResidualBlock") return "block";
  return "pool";  // MaxPool2d, GlobalAvgPool, Flatten
}

constexpr const char* kKinds[] = {"conv", "linear", "bn",
                                  "pool", "act",    "block"};

/// Times `fn` repeatedly: at least `min_reps` calls and about `budget_s` of
/// work, returning one sample per call in ms.
template <typename Fn>
std::vector<double> TimeReps(int min_reps, double budget_s, const Fn& fn) {
  std::vector<double> out;
  const int64_t start = NowNs();
  while (static_cast<int>(out.size()) < min_reps ||
         (static_cast<double>(NowNs() - start) / 1e9 < budget_s &&
          out.size() < 1000)) {
    const int64_t t = NowNs();
    fn();
    out.push_back(MsBetween(t, NowNs()));
  }
  return out;
}

double GemmGflops(int64_t m, int64_t n, int64_t k, Samples& s,
                  const std::string& key) {
  niid::Rng rng(7);
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  std::vector<float> c(static_cast<size_t>(m * n));
  for (float& v : a) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (float& v : b) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  const auto call = [&] {
    niid::Gemm(m, n, k, {a.data(), k, false}, {b.data(), n, false}, c.data(),
               n, /*accumulate=*/false, /*pool=*/nullptr);
  };
  call();  // warm the packing buffers
  const double flop = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                      static_cast<double>(k);
  for (const double ms : TimeReps(5, 0.3, call)) {
    s[key].push_back(flop / (ms * 1e6));
  }
  return flop;
}

/// Per-layer probes on the final global model, at the training batch size
/// (one party-0 batch) and at the eval batch size; single-threaded like the
/// layer calls inside a round, where each worker trains one party.
void ProbeLayers(const Workload& w, const Assembly& a, FederatedServer& server,
                 Tracer* tracer, Samples& s, int task_count) {
  Scope probe_span(tracer, "layer-probes", "nn");
  niid::Rng rng(1);
  std::unique_ptr<niid::Module> model = a.factory(rng);
  niid::LoadState(*model, server.global_state());
  auto* seq = dynamic_cast<niid::Sequential*>(model.get());
  NIID_CHECK(seq != nullptr) << "layer probes need a Sequential model";

  Dataset party;
  if (server.sparse()) {
    a.source->MaterializeParty(0, party);
  } else {
    party = server.client(0).data();
  }
  std::vector<int64_t> idx(static_cast<size_t>(
      std::min<int64_t>(w.config.local.batch_size, party.size())));
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int64_t>(i);
  auto [x, y] = niid::GatherBatch(party, idx);
  const int64_t batch = static_cast<int64_t>(idx.size());

  niid::SgdOptimizer optimizer(*model, niid::ResolveLearningRate(w.config),
                               w.config.local.momentum,
                               w.config.local.weight_decay);
  model->SetTraining(true);
  niid::LossResult loss;
  double fwd_flop = 0.0;
  struct GemmShape {
    int64_t m = 0, n = 0, k = 0;
  } largest;
  const int layers = seq->size();
  // Layer kinds the model has; the others report nothing.
  std::set<std::string> present;
  for (int i = 0; i < layers; ++i) present.insert(LayerKind(*seq->layer(i)));
  const auto step = [&](bool record) {
    std::map<std::string, double> fwd, bwd;
    const int64_t step_start = NowNs();
    optimizer.ZeroGrads();
    const niid::Tensor* h = &x;
    for (int i = 0; i < layers; ++i) {
      niid::Module* layer = seq->layer(i);
      const int64_t t = NowNs();
      h = &layer->Forward(*h);
      fwd[LayerKind(*layer)] += MsBetween(t, NowNs());
    }
    int64_t t = NowNs();
    niid::SoftmaxCrossEntropyInto(*h, y, loss);
    const double loss_ms = MsBetween(t, NowNs());
    const niid::Tensor* g = &loss.grad_logits;
    for (int i = layers - 1; i >= 0; --i) {
      niid::Module* layer = seq->layer(i);
      t = NowNs();
      g = &layer->Backward(*g);
      bwd[LayerKind(*layer)] += MsBetween(t, NowNs());
    }
    t = NowNs();
    optimizer.Step();
    const double sgd_ms = MsBetween(t, NowNs());
    const double step_ms = MsBetween(step_start, NowNs());
    if (!record) return;
    for (const char* kind : kKinds) {
      if (present.count(kind) == 0) continue;
      s[std::string("nn.") + kind + ".fwd_ms"].push_back(fwd[kind]);
      s[std::string("nn.") + kind + ".bwd_ms"].push_back(bwd[kind]);
    }
    s["nn.loss_ms"].push_back(loss_ms);
    s["nn.sgd_ms"].push_back(sgd_ms);
    s["nn.step_ms"].push_back(step_ms);
  };

  // Shapes and FLOPs from one untimed pass: a "conv.weight" [Cout, Cin*k*k]
  // runs at its layer's output resolution (inside a residual block every
  // convolution runs at the block's output resolution), a "linear.weight"
  // once per sample. The step costs forward + input gradient + weight
  // gradient, three times the forward multiply-adds.
  {
    const niid::Tensor* h = &x;
    for (int i = 0; i < layers; ++i) {
      niid::Module* layer = seq->layer(i);
      h = &layer->Forward(*h);
      const int64_t spatial = h->rank() == 4 ? h->dim(2) * h->dim(3) : 1;
      for (niid::Parameter* p : layer->Parameters()) {
        const int64_t numel = p->value.numel();
        if (p->name == "conv.weight") {
          const int64_t cout = p->value.dim(0), ckk = numel / cout;
          fwd_flop += 2.0 * static_cast<double>(batch * spatial) *
                      static_cast<double>(numel);
          const GemmShape candidates[3] = {{cout, spatial, ckk},
                                           {ckk, cout, batch * spatial},
                                           {ckk, batch * spatial, cout}};
          for (const GemmShape& c : candidates) {
            if (c.m * c.n * c.k > largest.m * largest.n * largest.k) {
              largest = c;
            }
          }
        } else if (p->name == "linear.weight") {
          fwd_flop += 2.0 * static_cast<double>(batch * numel);
        }
      }
    }
  }
  s["nn.step_gflop"].push_back(3.0 * fwd_flop / 1e9);
  {
    Scope span(tracer, "train-step-layers", "nn");
    (void)TimeReps(3, 0.0, [&] { step(false); });
    (void)TimeReps(10, 1.0, [&] { step(true); });
  }

  model->SetTraining(false);
  {
    Scope span(tracer, "eval-forward-layers", "nn");
    (void)TimeReps(10, 0.5, [&] {
      std::map<std::string, double> fwd;
      const niid::Tensor* h = &a.eval_batch.features;
      for (int i = 0; i < layers; ++i) {
        niid::Module* layer = seq->layer(i);
        const int64_t t = NowNs();
        h = &layer->Forward(*h);
        fwd[LayerKind(*layer)] += MsBetween(t, NowNs());
      }
      for (const char* kind : kKinds) {
        if (present.count(kind) == 0) continue;
        s[std::string("nn.") + kind + ".eval_fwd_ms"].push_back(fwd[kind]);
      }
    });
  }

  if (largest.m > 0) {
    Scope span(tracer, "Gemm", "tensor");
    GemmGflops(largest.m, largest.n, largest.k, s, "tensor.gemm_gflops");
    s["tensor.gemm_m"].push_back(static_cast<double>(largest.m));
    s["tensor.gemm_n"].push_back(static_cast<double>(largest.n));
    s["tensor.gemm_k"].push_back(static_cast<double>(largest.k));
  }
  {
    Scope span(tracer, "Gemm-256", "tensor");
    GemmGflops(256, 256, 256, s, "tensor.gemm_peak_gflops");
  }
  {
    Scope span(tracer, "ParallelFor", "util");
    niid::ThreadPool pool(kThreads);
    std::vector<int64_t> slots(static_cast<size_t>(std::max(task_count, 1)));
    const auto dispatch = [&] {
      niid::ParallelFor(&pool, static_cast<int64_t>(slots.size()),
                        [&](int64_t i) { slots[i] = i; });
    };
    for (const double ms : TimeReps(200, 0.2, dispatch)) {
      s["util.parallel_for_us"].push_back(ms * 1e3);
    }
  }
}

}  // namespace

TracedRun RunTraced(const Workload& w, const std::string& ckpt_path,
                    const std::string& trace_path) {
  Tracer tracer(/*run_id=*/1);
  Samples samples;
  Assembly assembly;
  std::unique_ptr<Replayer> replayer;
  niid::LocalTrainOptions options = w.config.local;
  options.learning_rate = niid::ResolveLearningRate(w.config);
  int64_t party_table = 0;

  const ServerBuilder build = [&](const Workload& wl) {
    return Assemble(wl, &tracer, samples, assembly);
  };
  const RoundHook hook = [&](FederatedServer& server, const StateVector& before,
                             const niid::RoundStats& stats) {
    if (!replayer) {
      replayer = std::make_unique<Replayer>(w, assembly, server, &tracer,
                                            samples);
    }
    replayer->Replay(server, before, stats, options);
    if (stats.round + 1 == w.rounds) {
      const niid::ServerCheckpoint checkpoint = server.MakeCheckpoint();
      party_table = static_cast<int64_t>(checkpoint.client_rng.size());
      ProbeLayers(w, assembly, server, &tracer, samples,
                  replayer->last_task_count());
    }
  };

  TracedRun run;
  run.cell = RunCell(w, ckpt_path, build, &tracer, hook);
  std::error_code ec;
  const auto ckpt_bytes = std::filesystem::file_size(ckpt_path, ec);
  if (!ec) {
    samples["fl.ckpt_mb"].push_back(static_cast<double>(ckpt_bytes) / 1e6);
  }
  samples["fl.party_table_size"].push_back(static_cast<double>(party_table));
  samples["fl.eval_ms"] = tracer.DurationsMs("EvaluateGlobal");
  samples["fl.ckpt_make_ms"] = tracer.DurationsMs("MakeCheckpoint");
  samples["fl.ckpt_write_ms"] = tracer.DurationsMs("WriteCheckpointFile");
  for (const auto& [key, values] : samples) run.layers.Array(key, values);
  run.layers.Objects("replays", replayer->records());
  run.trace_written = tracer.WriteChromeJson(trace_path);
  return run;
}

}  // namespace cellbench
