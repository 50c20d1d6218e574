// The four benchmark workloads and the metrics they report.
//
//   kv-zipf-threads     hash KvStore, YCSB-A over scrambled zipfian keys,
//                       threads backend, 2 app + 2 service cores
//   kv-zipf-processes   the same generated traffic on the processes backend
//   oltp-durable-threads  TPC-C new-order / payment / order-status over a
//                       warehouse KvStore and an order-line B+-tree, with a
//                       buffered commit log and periodic checkpoints
//   bank-sim48          Figure 5(a)'s bank on the modelled 48-core SCC
//
// All load is closed-loop: each application core waits for its operation
// before drawing the next. A run is a sequence of rounds, each on a fresh
// TmSystem: several set-ups per run give setup_s a median, and medians
// over rounds steady the throughput.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory under which processes runs create (and remove) their
  // per-round socket directories.
  std::string run_root = ".";
  // Chrome trace-event export of the first traced operations ("" = none).
  std::string trace_out;
};

// One reported number. `tag` is "measured" (host wall clock or host
// counters), "modelled" (simulated SCC time, deterministic per seed) or
// "count" (exact event counts and ratios of them). `base` states what a
// ratio or percentile was computed over.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string tag;
  std::string base;
};

struct Result {
  std::string workload;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failed checks, verbatim
  std::vector<Metric> end_to_end;     // untraced runs
  std::vector<Metric> per_layer;      // traced runs
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload for opt.seconds of measurement and checks its outputs.
// Throws std::invalid_argument for an unknown workload.
Result RunWorkload(const RunOptions& opt);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
