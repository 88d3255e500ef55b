// cellbench: runs one NIID-Bench cell workload and prints its raw
// measurements as one JSON line. run.py builds this binary, turns the raw
// record into the benchmark's metrics and checks the outputs.
//
//   cellbench --workload silo-cnn --seed 1 --seconds 30 --trace 0
//             --work-dir .bench_build/work
//
// --trace 0 runs round(S / kCellSeconds) cells, each on its own data draw,
// then the workload's extra setups.
// --trace 1 runs cell 0 untraced, traced (with round replays and the
// per-layer probes), and untraced again.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "cell.h"
#include "json.h"
#include "probes.h"

#ifndef CELLBENCH_BUILD_TYPE
#define CELLBENCH_BUILD_TYPE "unknown"
#endif
#ifndef CELLBENCH_COMPILER
#define CELLBENCH_COMPILER "unknown"
#endif
#ifndef CELLBENCH_CXX_FLAGS
#define CELLBENCH_CXX_FLAGS "unknown"
#endif

namespace cellbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  int trace = 0;
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      std::cerr << "unknown flag " << key << "\n";
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

std::string Hex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

JsonObject CellJson(const CellRecord& cell) {
  std::vector<double> round_ms;
  std::vector<int64_t> sampled, aggregated, dropped, unavailable, crashed,
      straggled, rejected, retries, poisoned, trimmed, quorum, uplink, trained;
  for (const RoundRecord& r : cell.rounds) {
    round_ms.push_back(r.round_ms);
    sampled.push_back(r.sampled);
    aggregated.push_back(r.aggregated);
    dropped.push_back(r.dropped);
    unavailable.push_back(r.unavailable);
    crashed.push_back(r.crashed);
    straggled.push_back(r.straggled);
    rejected.push_back(r.rejected);
    retries.push_back(r.resample_retries);
    poisoned.push_back(r.poisoned);
    trimmed.push_back(r.trimmed);
    quorum.push_back(r.quorum_met ? 1 : 0);
    uplink.push_back(r.bytes_uplink);
    trained.push_back(r.trained_samples);
  }
  JsonObject rounds;
  rounds.Array("round_ms", round_ms)
      .Array("sampled", sampled)
      .Array("aggregated", aggregated)
      .Array("dropped", dropped)
      .Array("unavailable", unavailable)
      .Array("crashed", crashed)
      .Array("straggled", straggled)
      .Array("rejected", rejected)
      .Array("resample_retries", retries)
      .Array("poisoned", poisoned)
      .Array("trimmed", trimmed)
      .Array("quorum_met", quorum)
      .Array("bytes_uplink", uplink)
      .Array("trained_samples", trained);
  JsonObject out;
  out.Int("draw", cell.draw)
      .Num("setup_s", cell.setup_s)
      .Num("cell_s", cell.cell_s)
      .Num("final_accuracy", cell.final_accuracy)
      .Str("checksum", Hex(cell.checksum))
      .Array("eval_ms", cell.eval_ms)
      .Array("eval_accuracy", cell.eval_accuracy)
      .Array("ckpt_ms", cell.ckpt_ms)
      .Int("ckpt_failed", cell.ckpt_failed)
      .Object("rounds", rounds);
  return out;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: cellbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n";
    return 2;
  }
  if (std::string(CELLBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "refusing to measure a " << CELLBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  Workload w;
  if (!MakeWorkload(args.workload, CellDraw(args.seed, 0), &w)) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  const std::string stem = args.work_dir + "/" + w.name + "-" +
                           std::to_string(::getpid());
  const std::string ckpt_path = stem + ".ckpt";

  JsonObject out;
  out.Str("workload", w.name)
      .Int("seed", static_cast<int64_t>(args.seed))
      .Int("threads", kThreads)
      .Str("build_type", CELLBENCH_BUILD_TYPE)
      .Str("compiler", CELLBENCH_COMPILER)
      .Str("cxx_flags", CELLBENCH_CXX_FLAGS)
      .Int("rounds_per_cell", w.rounds);

  std::vector<JsonObject> cells;
  if (args.trace == 0) {
    const int count =
        std::max(1, static_cast<int>(std::lround(args.seconds / kCellSeconds)));
    for (int k = 0; k < count; ++k) {
      Workload wk;
      (void)MakeWorkload(args.workload, CellDraw(args.seed, k), &wk);
      cells.push_back(CellJson(RunCell(wk, ckpt_path, BuildWithLibrary)));
    }
    std::vector<double> extra_setup_s;
    for (int i = 0; i < w.extra_setups; ++i) {
      Workload wk;
      (void)MakeWorkload(args.workload, CellDraw(args.seed, i % count), &wk);
      const int64_t start = NowNs();
      (void)BuildWithLibrary(wk);
      extra_setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    }
    out.Array("extra_setup_s", extra_setup_s);
  } else {
    // Untraced cells on both sides of the traced one, so the overhead
    // estimate is not biased by warm-up or by drift in host speed.
    const CellRecord before = RunCell(w, ckpt_path, BuildWithLibrary);
    const std::string trace_path = stem + ".trace.json";
    TracedRun traced = RunTraced(w, ckpt_path, trace_path);
    const CellRecord after = RunCell(w, ckpt_path, BuildWithLibrary);
    cells = {CellJson(before), CellJson(traced.cell), CellJson(after)};
    out.Int("bit_identical", traced.cell.final_state == before.final_state &&
                                 after.final_state == before.final_state)
        .Str("trace_file", traced.trace_written ? trace_path : "")
        .Object("layers", traced.layers);
  }
  std::filesystem::remove(ckpt_path);
  out.Objects("cells", cells);
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  out.Int("max_rss_kb", usage.ru_maxrss);
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace cellbench

int main(int argc, char** argv) { return cellbench::Main(argc, argv); }
