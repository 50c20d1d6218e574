#include "perfbench/src/workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>

#include "perfbench/src/gen.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/stats.h"
#include "src/apps/bank.h"
#include "src/apps/kvstore.h"
#include "src/apps/ordered_index.h"
#include "src/noc/platform.h"
#include "src/tm/tm_system.h"

namespace perfbench {
namespace {

using tm2c::BackendKind;
using tm2c::CoreEnv;
using tm2c::DurabilityMode;
using tm2c::TmSystem;
using tm2c::Tx;
using tm2c::TxRuntime;

double HostSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr double kPsPerUs = 1e6;
constexpr double kPsPerSecond = 1e12;

// ---------------------------------------------------------------------------
// Spans around layer calls
// ---------------------------------------------------------------------------

// Span recording for one operation; every call is a no-op when untraced.
// Timestamps come from CoreEnv::GlobalNow(): host time on the native
// backends, modelled time under the simulator (where recording them costs
// no modelled time at all).
class Trace {
 public:
  Trace(CoreEnv& env, OpTrace* trace) : env_(env), trace_(trace) {}
  bool on() const { return trace_ != nullptr; }
  OpTrace& ops() { return *trace_; }
  int32_t Begin(SpanKind kind, int32_t parent, uint8_t detail = 0) {
    return trace_ == nullptr ? -1 : trace_->Begin(kind, parent, env_.GlobalNow(), detail);
  }
  void End(int32_t index) {
    if (trace_ != nullptr) {
      trace_->End(index, env_.GlobalNow());
    }
  }

 private:
  CoreEnv& env_;
  OpTrace* trace_;
};

// Ends its span when the scope exits, normally or by exception, so an
// aborting attempt is recorded while TxAbortException passes through.
class ScopedSpan {
 public:
  ScopedSpan(Trace& trace, SpanKind kind, int32_t parent, uint8_t detail = 0)
      : trace_(trace), index_(trace.Begin(kind, parent, detail)) {}
  ~ScopedSpan() { trace_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t index() const { return index_; }

 private:
  Trace& trace_;
  int32_t index_;
};

uint8_t Call(AppsCall call) { return static_cast<uint8_t>(call); }

// TxRuntime::Execute with tm.execute / tm.attempt / tm.commit spans.
// `body(tx, attempt_span)` runs once per attempt.
template <typename Body>
void TracedExecute(TxRuntime& rt, Trace& trace, int32_t root, const Body& body) {
  if (!trace.on()) {
    rt.Execute([&body](Tx& tx) { body(tx, -1); });
    return;
  }
  ScopedSpan exec(trace, SpanKind::kExecute, root);
  int32_t last = -1;
  rt.Execute([&](Tx& tx) {
    ScopedSpan attempt(trace, SpanKind::kAttempt, exec.index());
    body(tx, attempt.index());
    last = attempt.index();
  });
  // Only the last attempt whose body returned committed; an earlier one
  // that returned lost its commit-time acquisition and stays "aborted".
  Span& committed = trace.ops().at(last);
  committed.detail = 1;
  const int32_t commit =
      trace.ops().Begin(SpanKind::kCommit, exec.index(), committed.end);
  trace.End(commit);
}

// ---------------------------------------------------------------------------
// Per-round state
// ---------------------------------------------------------------------------

// One application core's record of one round.
struct CoreRec {
  std::vector<double> lat_read, lat_update;  // us, ops started in the window
  uint64_t ops = 0;           // every completed operation, warm-up included
  uint64_t in_window = 0;     // operations that completed inside the window
  uint64_t failed = 0;
  std::vector<std::string> failures;
  // Application counters for the output checks and per-layer ratios.
  uint64_t new_orders = 0;
  uint64_t paid = 0;
  uint64_t user_words = 0;    // value words handed to the store by committed updates
  uint64_t scans = 0;
  uint64_t scan_entries = 0;
  SpanStore spans;

  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 3) {
      failures.push_back(why);
    }
  }
};

// Round-wide start: the first application core to start fixes t0, so all
// cores share one warm-up and one measurement window.
struct RoundClock {
  std::atomic<uint64_t> t0{UINT64_MAX};
  double host_first_op = 0.0;  // written by the first core, read after Run

  uint64_t Start(uint64_t now) {
    uint64_t expected = UINT64_MAX;
    if (t0.compare_exchange_strong(expected, now)) {
      host_first_op = HostSeconds();
      return now;
    }
    return expected;
  }
};

struct Rusage {
  double cpu_s = 0.0;
  double ctx = 0.0;
};

Rusage ReadRusage() {
  Rusage r;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage u{};
    getrusage(who, &u);
    r.cpu_s += static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
               static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
    r.ctx += static_cast<double>(u.ru_nvcsw + u.ru_nivcsw);
  }
  return r;
}

double PeakRssMb() {
  double kb = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage u{};
    getrusage(who, &u);
    kb += static_cast<double>(u.ru_maxrss);
  }
  return kb / 1024.0;
}

// Everything a round leaves behind for the report.
struct RoundOut {
  bool traced = false;
  double setup_s = 0.0;
  double host_run_s = 0.0;
  double window_s = 0.0;       // window length in the round's own clock, seconds
  uint64_t in_window = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<double> lat_read, lat_update;
  tm2c::TxStats stats;
  std::vector<tm2c::DtmServiceStats> services;
  Rusage usage;
  // Application layer.
  uint64_t nodes_in_use = 0;
  uint64_t resident_keys = 0;
  uint64_t scans = 0;
  uint64_t scan_entries = 0;
  uint64_t user_bytes = 0;
  // Durability layer.
  uint64_t wal_bytes = 0;
  uint64_t checkpoints = 0;
  // Simulator.
  uint64_t events = 0;
  double modelled_s = 0.0;
  LayerTotals layers;
  std::string chrome;  // exported spans (first traced round only)
};

// ---------------------------------------------------------------------------
// Applications
// ---------------------------------------------------------------------------

class App {
 public:
  virtual ~App() = default;
  // Builds the stores on `sys` and loads them (host-side).
  virtual void Load(TmSystem& sys) = 0;
  // Runs one generated operation; returns "" or what its check found.
  virtual std::string Do(CoreEnv& env, TxRuntime& rt, const Op& op, Trace& trace,
                         int32_t root, uint32_t core, CoreRec& rec) = 0;
  // End-of-round output checks; appends what failed.
  virtual void Check(TmSystem& sys, const std::vector<CoreRec>& recs,
                     std::vector<std::string>* problems) = 0;
  // Application-layer counters.
  virtual void Collect(TmSystem& sys, RoundOut* out) = 0;
};

constexpr uint32_t kKvValueWords = 4;

bool RecordConsistent(const uint64_t* v, uint32_t words) {
  for (uint32_t w = 1; w < words; ++w) {
    if (v[w] != StampWord(v[0], w)) {
      return false;
    }
  }
  return true;
}

// Hash KvStore under YCSB-A; every record is one stamp's words.
class KvApp : public App {
 public:
  explicit KvApp(uint64_t keys) : keys_(keys) {}

  void Load(TmSystem& sys) override {
    const uint32_t parts = sys.deployment().num_service();
    tm2c::KvStoreConfig cfg;
    cfg.value_words = kKvValueWords;
    cfg.buckets_per_partition = static_cast<uint32_t>(keys_ / (uint64_t{parts} * 4));
    cfg.capacity_per_partition = static_cast<uint32_t>(2 * keys_ / parts + 64);
    store_ = std::make_unique<tm2c::KvStore>(sys.allocator(), sys.shmem(), sys.address_map(),
                                              sys.deployment(), cfg);
    uint64_t v[kKvValueWords];
    for (uint64_t key = 1; key <= keys_; ++key) {
      Fill(key, v);
      store_->HostPut(key, v);
    }
  }

  std::string Do(CoreEnv&, TxRuntime& rt, const Op& op, Trace& trace, int32_t root, uint32_t,
                 CoreRec& rec) override {
    uint64_t v[kKvValueWords] = {};
    bool found = false;
    if (op.kind == OpKind::kGet) {
      TracedExecute(rt, trace, root, [&](Tx& tx, int32_t attempt) {
        ScopedSpan call(trace, SpanKind::kApps, attempt, Call(AppsCall::kGet));
        found = store_->TxGet(tx, op.a, v);
      });
      if (!found) {
        return "get: key missing";
      }
      return RecordConsistent(v, kKvValueWords) ? "" : "get: torn record";
    }
    bool consistent = true;
    TracedExecute(rt, trace, root, [&](Tx& tx, int32_t attempt) {
      ScopedSpan call(trace, SpanKind::kApps, attempt, Call(AppsCall::kUpdate));
      found = store_->TxReadModifyWrite(tx, op.a, [&](uint64_t* value) {
        consistent = RecordConsistent(value, kKvValueWords);
        Fill(op.b, value);
      });
    });
    rec.user_words += kKvValueWords;
    if (!found) {
      return "update: key missing";
    }
    return consistent ? "" : "update: torn record";
  }

  void Check(TmSystem&, const std::vector<CoreRec>&,
             std::vector<std::string>* problems) override {
    uint64_t torn = 0;
    store_->HostForEach([&torn](uint64_t, const uint64_t* v) {
      torn += RecordConsistent(v, kKvValueWords) ? 0 : 1;
    });
    if (torn != 0) {
      problems->push_back(std::to_string(torn) + " torn records after the round");
    }
    if (store_->HostSize() != keys_) {
      problems->push_back("resident keys " + std::to_string(store_->HostSize()) +
                          " != loaded " + std::to_string(keys_));
    }
  }

  void Collect(TmSystem&, RoundOut* out) override {
    for (uint32_t p = 0; p < store_->num_partitions(); ++p) {
      out->nodes_in_use += store_->NodesInUse(p);
    }
    out->resident_keys = store_->HostSize();
  }

 private:
  static void Fill(uint64_t stamp, uint64_t* v) {
    v[0] = stamp;
    for (uint32_t w = 1; w < kKvValueWords; ++w) {
      v[w] = StampWord(stamp, w);
    }
  }

  uint64_t keys_;
  std::unique_ptr<tm2c::KvStore> store_;
};

// TPC-C's short transactions over two tables (as in bench_tpcc): the
// warehouse KvStore holds [next_o_id, ytd]; the order-line B+-tree keys
// pack (warehouse, order slot, line). Orders recycle through a window of
// slots, so the tree splits and merges at steady state.
constexpr uint32_t kMaxLines = 4;
constexpr uint64_t kOrderWindow = 64;

class OltpApp : public App {
 public:
  OltpApp(uint32_t warehouses, uint32_t app_cores)
      : warehouses_(warehouses), scratch_(app_cores) {}

  void Load(TmSystem& sys) override {
    const uint32_t parts = sys.deployment().num_service();
    tm2c::KvStoreConfig wcfg;
    wcfg.value_words = 2;
    wcfg.buckets_per_partition = 16;
    wcfg.capacity_per_partition = warehouses_ + 16;
    wh_ = std::make_unique<tm2c::KvStore>(sys.allocator(), sys.shmem(), sys.address_map(),
                                           sys.deployment(), wcfg);
    tm2c::OrderedIndexConfig ocfg;
    ocfg.key_min = 1;
    ocfg.key_max = LineKey(warehouses_, kOrderWindow - 1, kMaxLines - 1);
    ocfg.value_words = 1;
    ocfg.fanout = 6;
    ocfg.capacity_per_partition = static_cast<uint32_t>(ocfg.key_max / parts + 64);
    lines_ = std::make_unique<tm2c::OrderedIndex>(sys.allocator(), sys.shmem(),
                                                   sys.address_map(), sys.deployment(), ocfg);
    // Every warehouse starts with a full window of 2-line orders; order
    // o_id's line l carries quantity Qty(o_id, l).
    for (uint32_t w = 1; w <= warehouses_; ++w) {
      const uint64_t init[2] = {kOrderWindow, 0};
      wh_->HostPut(w, init);
      for (uint64_t slot = 0; slot < kOrderWindow; ++slot) {
        for (uint32_t l = 0; l < 2; ++l) {
          const uint64_t qty = Qty(slot, l);
          lines_->HostPut(LineKey(w, slot, l), &qty);
        }
      }
    }
  }

  std::string Do(CoreEnv&, TxRuntime& rt, const Op& op, Trace& trace, int32_t root,
                 uint32_t core, CoreRec& rec) override {
    const auto w = static_cast<uint32_t>(op.a);
    switch (op.kind) {
      case OpKind::kNewOrder: {
        tm2c::OrderedIndex::SmoScratch& scratch = scratch_[core];
        const auto nlines = static_cast<uint32_t>(op.b);
        TracedExecute(rt, trace, root, [&](Tx& tx, int32_t attempt) {
          scratch.ResetAttempt();
          uint64_t o_id = 0;
          {
            ScopedSpan call(trace, SpanKind::kApps, attempt, Call(AppsCall::kUpdate));
            wh_->TxReadModifyWrite(tx, w, [&o_id](uint64_t* v) {
              o_id = v[0];
              v[0] += 1;
            });
          }
          const uint64_t slot = o_id % kOrderWindow;
          for (uint32_t l = 0; l < kMaxLines; ++l) {
            ScopedSpan call(trace, SpanKind::kApps, attempt, Call(AppsCall::kUpdate));
            const uint64_t key = LineKey(w, slot, l);
            if (l < nlines) {
              const uint64_t qty = Qty(o_id, l);
              lines_->TxPut(tx, key, &qty, &scratch);
            } else {
              lines_->TxDelete(tx, key, nullptr, &scratch);
            }
          }
        });
        lines_->SettleScratch(&scratch);
        ++rec.new_orders;
        rec.user_words += 2 + nlines;
        return "";
      }
      case OpKind::kPayment: {
        const uint64_t amount = op.b;
        TracedExecute(rt, trace, root, [&](Tx& tx, int32_t attempt) {
          ScopedSpan call(trace, SpanKind::kApps, attempt, Call(AppsCall::kUpdate));
          wh_->TxReadModifyWrite(tx, w, [amount](uint64_t* v) { v[1] += amount; });
        });
        rec.paid += amount;
        rec.user_words += 2;
        return "";
      }
      case OpKind::kOrderStatus: {
        std::vector<tm2c::KvEntry> out;
        uint64_t o_id = 0;
        bool found = false;
        TracedExecute(rt, trace, root, [&](Tx& tx, int32_t attempt) {
          out.clear();
          uint64_t v[2] = {0, 0};
          {
            ScopedSpan call(trace, SpanKind::kApps, attempt, Call(AppsCall::kGet));
            found = wh_->TxGet(tx, w, v);
          }
          if (!found) {
            return;
          }
          o_id = v[0] - std::min(op.b, v[0]);
          const uint64_t slot = o_id % kOrderWindow;
          ScopedSpan call(trace, SpanKind::kApps, attempt, Call(AppsCall::kScan));
          lines_->TxRangeScan(tx, LineKey(w, slot, 0), LineKey(w, slot, kMaxLines - 1),
                              kMaxLines, &out);
        });
        ++rec.scans;
        rec.scan_entries += out.size();
        if (!found) {
          return "order-status: warehouse missing";
        }
        // The order's lines come back in key order, contiguous from line 0,
        // each with the quantity its new-order wrote.
        if (out.empty()) {
          return "order-status: order has no lines";
        }
        const uint64_t slot = o_id % kOrderWindow;
        for (size_t l = 0; l < out.size(); ++l) {
          if (out[l].key != LineKey(w, slot, static_cast<uint32_t>(l))) {
            return "order-status: lines out of key order";
          }
          if (out[l].value.empty() || out[l].value[0] != Qty(o_id, static_cast<uint32_t>(l))) {
            return "order-status: line quantity from another order";
          }
        }
        return "";
      }
      default:
        return "oltp: unexpected operation";
    }
  }

  void Check(TmSystem&, const std::vector<CoreRec>& recs,
             std::vector<std::string>* problems) override {
    uint64_t new_orders = 0, paid = 0;
    for (const CoreRec& r : recs) {
      new_orders += r.new_orders;
      paid += r.paid;
    }
    uint64_t o_id_sum = 0, ytd_sum = 0;
    for (uint32_t w = 1; w <= warehouses_; ++w) {
      uint64_t v[2] = {0, 0};
      if (!wh_->HostGet(w, v)) {
        problems->push_back("warehouse " + std::to_string(w) + " missing");
        return;
      }
      o_id_sum += v[0];
      ytd_sum += v[1];
    }
    const uint64_t advance = o_id_sum - uint64_t{warehouses_} * kOrderWindow;
    if (advance != new_orders) {
      problems->push_back("next_o_id advanced " + std::to_string(advance) + " for " +
                          std::to_string(new_orders) + " committed new-orders");
    }
    if (ytd_sum != paid) {
      problems->push_back("ytd total " + std::to_string(ytd_sum) + " != paid " +
                          std::to_string(paid));
    }
    lines_->HostCheckStructure(problems);
  }

  void Collect(TmSystem& sys, RoundOut* out) override {
    for (uint32_t p = 0; p < lines_->num_partitions(); ++p) {
      out->nodes_in_use += lines_->NodesInUse(p);
    }
    out->resident_keys = lines_->HostSize();
    for (uint32_t p = 0; p < sys.deployment().num_service(); ++p) {
      const tm2c::PartitionDurability& dur = sys.DurabilityAt(p);
      out->wal_bytes += dur.wal().image().size() - tm2c::kWalHeaderBytes;
      out->checkpoints += dur.checkpoints().size() - 1;  // checkpoint 0 is the load image
    }
  }

 private:
  static uint64_t LineKey(uint32_t warehouse, uint64_t slot, uint32_t line) {
    return (uint64_t{warehouse - 1} * kOrderWindow + slot) * kMaxLines + line + 1;
  }
  static uint64_t Qty(uint64_t o_id, uint32_t line) { return 1 + (o_id + line) % 10; }

  uint32_t warehouses_;
  std::vector<tm2c::OrderedIndex::SmoScratch> scratch_;  // per app core
  std::unique_ptr<tm2c::KvStore> wh_;
  std::unique_ptr<tm2c::OrderedIndex> lines_;
};

// Figure 5(a)'s bank. Keeps the figure benches' fixed per-operation
// harness cost (10,000 modelled core cycles, bench/workloads.h
// kOpOverheadCycles) so its modelled numbers stay comparable to them.
constexpr uint64_t kBankOpOverheadCycles = 10000;
constexpr uint64_t kBankInitial = 100;

class BankApp : public App {
 public:
  explicit BankApp(uint32_t accounts) : accounts_(accounts) {}

  void Load(TmSystem& sys) override {
    bank_ = std::make_unique<tm2c::Bank>(sys.allocator(), sys.shmem(), accounts_, kBankInitial);
  }

  std::string Do(CoreEnv& env, TxRuntime& rt, const Op& op, Trace& trace, int32_t root,
                 uint32_t, CoreRec& rec) override {
    env.Compute(kBankOpOverheadCycles);
    if (op.kind == OpKind::kBalance) {
      uint64_t total = 0;
      TracedExecute(rt, trace, root, [&](Tx& tx, int32_t attempt) {
        ScopedSpan call(trace, SpanKind::kApps, attempt, Call(AppsCall::kScan));
        total = bank_->TxBalance(tx);
      });
      ++rec.scans;
      rec.scan_entries += accounts_;
      return total == Total() ? "" : "balance: total not conserved in a snapshot";
    }
    TracedExecute(rt, trace, root, [&](Tx& tx, int32_t attempt) {
      ScopedSpan call(trace, SpanKind::kApps, attempt, Call(AppsCall::kUpdate));
      bank_->TxTransfer(tx, static_cast<uint32_t>(op.a), static_cast<uint32_t>(op.b), 1);
    });
    rec.user_words += 2;
    return "";
  }

  void Check(TmSystem&, const std::vector<CoreRec>&,
             std::vector<std::string>* problems) override {
    if (bank_->HostTotal() != Total()) {
      problems->push_back("bank total " + std::to_string(bank_->HostTotal()) + " != " +
                          std::to_string(Total()));
    }
  }

  void Collect(TmSystem&, RoundOut*) override {}

 private:
  uint64_t Total() const { return uint64_t{accounts_} * kBankInitial; }

  uint32_t accounts_;
  std::unique_ptr<tm2c::Bank> bank_;
};

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

constexpr uint64_t kKvKeys = 16384;
constexpr double kKvTheta = 0.99;
constexpr uint32_t kWarehouses = 4;
constexpr uint32_t kAccounts = 1024;

// Native rounds: a short unmeasured warm-up, then the measured window.
constexpr double kNativeWarmupS = 0.1;
constexpr uint32_t kNativeRounds = 10;
// Simulated rounds: modelled horizon split into warm-up and window, and
// how many rounds one second of --seconds buys (calibrated so a round
// takes about 1.4 host seconds).
constexpr double kSimWarmupMs = 10.0;
constexpr double kSimWindowMs = 90.0;
constexpr double kSimRoundsPerSecond = 0.7;

struct WorkloadDef {
  std::string name;
  BackendKind backend = BackendKind::kThreads;
  uint32_t cores = 4;
  uint32_t service = 2;
  DurabilityMode durability = DurabilityMode::kOff;
  Mix::Kind mix = Mix::Kind::kKv;
};

const std::vector<WorkloadDef>& Defs() {
  static const std::vector<WorkloadDef> defs = {
      {"kv-zipf-threads", BackendKind::kThreads, 4, 2, DurabilityMode::kOff, Mix::Kind::kKv},
      {"kv-zipf-processes", BackendKind::kProcesses, 4, 2, DurabilityMode::kOff,
       Mix::Kind::kKv},
      {"oltp-durable-threads", BackendKind::kThreads, 4, 2, DurabilityMode::kBuffered,
       Mix::Kind::kOltp},
      {"bank-sim48", BackendKind::kSim, 48, 24, DurabilityMode::kOff, Mix::Kind::kBank},
  };
  return defs;
}

std::unique_ptr<App> MakeApp(const WorkloadDef& def) {
  switch (def.mix) {
    case Mix::Kind::kKv:
      return std::make_unique<KvApp>(kKvKeys);
    case Mix::Kind::kOltp:
      return std::make_unique<OltpApp>(kWarehouses, def.cores - def.service);
    case Mix::Kind::kBank:
      return std::make_unique<BankApp>(kAccounts);
  }
  return nullptr;
}

tm2c::TmSystemConfig MakeConfig(const WorkloadDef& def, uint64_t sim_seed,
                                const std::string& run_dir) {
  tm2c::TmSystemConfig cfg;
  cfg.sim.platform = tm2c::PlatformByName("scc");
  cfg.sim.num_cores = def.cores;
  cfg.sim.num_service = def.service;
  cfg.sim.shmem_bytes = 32ull << 20;
  cfg.sim.seed = sim_seed;
  cfg.tm.cm = tm2c::CmKind::kFairCm;
  cfg.tm.max_batch = 16;
  cfg.tm.durability = def.durability;
  if (def.durability != DurabilityMode::kOff) {
    cfg.tm.group_commit_txs = 4;
    cfg.tm.checkpoint_every_records = 4096;
  }
  cfg.backend = def.backend;
  cfg.run_dir = run_dir;
  return cfg;
}

// ---------------------------------------------------------------------------
// One round
// ---------------------------------------------------------------------------

struct RoundPlan {
  uint32_t index = 0;   // selects the op streams; a traced round repeats an untraced one
  bool traced = false;
  uint64_t warm_ps = 0;
  uint64_t window_ps = 0;
};

// A processes round's socket directory, removed with everything in it
// when the round ends, however it ends.
class RunDir {
 public:
  explicit RunDir(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) {
      std::filesystem::create_directories(path_);
    }
  }
  ~RunDir() {
    std::error_code ec;
    if (!path_.empty()) {
      std::filesystem::remove_all(path_, ec);
    }
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

RoundOut RunRound(const WorkloadDef& def, const Mix& mix, const RunOptions& opt,
                  const RoundPlan& plan, bool export_spans) {
  RoundOut out;
  out.traced = plan.traced;
  const RunDir run_dir(def.backend != BackendKind::kProcesses
                           ? ""
                           : opt.run_root + "/r" + std::to_string(::getpid()) + "-" +
                                 std::to_string(plan.index) + (plan.traced ? "t" : ""));
  const double setup_start = HostSeconds();
  {
    TmSystem sys(MakeConfig(def, StreamSeed(opt.seed, plan.index, 0xffff), run_dir.path()));
    std::unique_ptr<App> app = MakeApp(def);
    app->Load(sys);
    if (sys.durability_enabled()) {
      sys.CaptureDurableCheckpoint0();
    }
    const uint32_t app_cores = sys.num_app_cores();
    std::vector<CoreRec> recs(app_cores);
    RoundClock clock;
    for (uint32_t i = 0; i < app_cores; ++i) {
      sys.SetAppBody(i, [&, i](CoreEnv& env, TxRuntime& rt) {
        CoreRec& rec = recs[i];
        OpStream stream(mix, StreamSeed(opt.seed, plan.index, i));
        const uint64_t warm_end = clock.Start(env.GlobalNow()) + plan.warm_ps;
        const uint64_t end = warm_end + plan.window_ps;
        OpTrace op_trace;
        for (;;) {
          const uint64_t start = env.GlobalNow();
          if (start >= end) {
            break;
          }
          const Op op = stream.Next();
          op_trace.Clear();
          Trace trace(env, plan.traced ? &op_trace : nullptr);
          const int32_t root = trace.Begin(SpanKind::kOp, -1);
          const std::string bad = app->Do(env, rt, op, trace, root, i, rec);
          trace.End(root);
          const uint64_t finish = env.GlobalNow();
          ++rec.ops;
          if (!bad.empty()) {
            rec.Fail(bad);
          }
          if (finish >= warm_end && finish < end) {
            ++rec.in_window;
          }
          if (start >= warm_end) {
            const double us = static_cast<double>(finish - start) / kPsPerUs;
            (IsReadOnly(op.kind) ? rec.lat_read : rec.lat_update).push_back(us);
            if (plan.traced) {
              rec.spans.Append(op_trace);
            }
          }
        }
      });
    }
    const Rusage before = ReadRusage();
    const double run_start = HostSeconds();
    const tm2c::SimTime elapsed = sys.Run();
    out.host_run_s = HostSeconds() - run_start;
    const Rusage after = ReadRusage();
    out.usage.cpu_s = after.cpu_s - before.cpu_s;
    out.usage.ctx = after.ctx - before.ctx;
    out.setup_s = clock.host_first_op - setup_start;
    out.window_s = static_cast<double>(plan.window_ps) / kPsPerSecond;

    for (uint32_t i = 0; i < app_cores; ++i) {
      CoreRec& r = recs[i];
      out.ops += r.ops;
      out.in_window += r.in_window;
      out.failed += r.failed;
      for (const std::string& f : r.failures) {
        out.failures.push_back(f);
      }
      out.lat_read.insert(out.lat_read.end(), r.lat_read.begin(), r.lat_read.end());
      out.lat_update.insert(out.lat_update.end(), r.lat_update.begin(), r.lat_update.end());
      out.scans += r.scans;
      out.scan_entries += r.scan_entries;
      out.user_bytes += r.user_words * tm2c::kWordBytes;
      for (size_t k = 0; k < r.spans.ops(); ++k) {
        out.layers.Add(r.spans.Op(k));
      }
      if (export_spans) {
        r.spans.ExportChrome(plan.index, i, 200, &out.chrome);
      }
    }
    out.stats = sys.MergedStats();
    for (uint32_t p = 0; p < sys.deployment().num_service(); ++p) {
      out.services.push_back(sys.ServiceStats(p));
    }
    app->Collect(sys, &out);
    if (def.backend == BackendKind::kSim) {
      out.events = sys.sim().engine().events_executed();
      out.modelled_s = static_cast<double>(elapsed) / kPsPerSecond;
    }

    // Output checks. A failed check fails every operation of the round.
    std::vector<std::string> problems;
    if (!sys.AllLockTablesEmpty()) {
      problems.push_back("lock tables not empty after the round");
    }
    app->Check(sys, recs, &problems);
    if (!problems.empty()) {
      out.failed = out.ops;
      out.failures.insert(out.failures.end(), problems.begin(), problems.end());
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

std::string Base(const char* fmt, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

std::string QuantileLabel(double q) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%g", q * 100.0);
  return buf;
}

// Reports p50, p99 and (for "op") the highest supported tail of one
// latency class: the median over the given rounds of each round's value
// when there are several summaries, the value itself when there is one.
void AddLatency(std::vector<Metric>* out, const std::string& prefix,
                const std::vector<LatencySummary>& rounds, const std::string& tag) {
  std::vector<double> p50, p99, tail;
  uint64_t n_min = UINT64_MAX, n_max = 0;
  double p99_q = 1.0, tail_q = 1.0;
  for (const LatencySummary& s : rounds) {
    p50.push_back(s.p50);
    p99.push_back(s.p99);
    tail.push_back(s.tail);
    n_min = std::min(n_min, s.samples);
    n_max = std::max(n_max, s.samples);
    p99_q = std::min(p99_q, s.p99_q);
    tail_q = std::min(tail_q, s.tail_q);
  }
  const std::string of =
      rounds.size() == 1
          ? " of n=" + std::to_string(n_max) + " operations"
          : " per round, median over " + std::to_string(rounds.size()) +
                " rounds of n=" +
                std::to_string(n_min) + ".." + std::to_string(n_max) + " operations";
  out->push_back({prefix + "_p50_us", Median(p50), "us", tag, "p50" + of});
  out->push_back({prefix + "_p99_us", Median(p99), "us", tag, QuantileLabel(p99_q) + of});
  if (prefix == "op") {
    out->push_back({"op_tail_us", Median(tail), "us", tag,
                    QuantileLabel(tail_q) + " (highest with >= 10 beyond)" + of});
  }
}

// The three latency classes of a round's (or a pool's) samples.
std::array<LatencySummary, 3> SummarizeClasses(std::vector<double>* read,
                                               std::vector<double>* update) {
  std::vector<double> all = *read;
  all.insert(all.end(), update->begin(), update->end());
  return {Summarize(&all), Summarize(read), Summarize(update)};
}

// Completions per second of the measured window, in the round's own clock
// (modelled seconds under the simulator).
double RoundTput(const RoundOut& r) { return static_cast<double>(r.in_window) / r.window_s; }

// Commits per host second of Run(): how fast the host got through the
// round, the simulator's speed on bank-sim48.
double HostTput(const RoundOut& r) { return static_cast<double>(r.stats.commits) / r.host_run_s; }

Metric RatioMetric(const std::string& name, const Ratio& r, const std::string& unit,
                   const std::string& tag, const std::string& num, const std::string& den) {
  return {name, r.value(), unit, tag,
          num + "=" + Base("%.0f", r.num) + " / " + den + "=" + Base("%.0f", r.den)};
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const WorkloadDef& d : Defs()) {
      n.push_back(d.name);
    }
    return n;
  }();
  return names;
}

Result RunWorkload(const RunOptions& opt) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& d : Defs()) {
    if (d.name == opt.workload) {
      def = &d;
    }
  }
  if (def == nullptr) {
    throw std::invalid_argument("unknown workload: " + opt.workload);
  }
  const bool simulated = def->backend == BackendKind::kSim;

  // The generated traffic: built once per run, shared by every round.
  std::unique_ptr<Zipfian> zipf;
  Mix mix;
  mix.kind = def->mix;
  if (def->mix == Mix::Kind::kKv) {
    zipf = std::make_unique<Zipfian>(kKvKeys, kKvTheta);
    mix.keys = kKvKeys;
    mix.zipf = zipf.get();
  }
  mix.warehouses = kWarehouses;
  mix.max_lines = kMaxLines;
  mix.status_back = kOrderWindow / 2;
  mix.accounts = kAccounts;

  // Round plan. Untraced runs measure `seconds` across their rounds; a
  // traced run pairs every traced round with an untraced one over the same
  // op streams, for the tracing overhead.
  std::vector<RoundPlan> plans;
  uint32_t count = 0;
  RoundPlan proto;
  if (simulated) {
    count = std::max<uint32_t>(1, static_cast<uint32_t>(std::lround(
                                      opt.seconds * kSimRoundsPerSecond / (opt.trace ? 2 : 1))));
    proto.warm_ps = static_cast<uint64_t>(kSimWarmupMs * 1e9);
    proto.window_ps = static_cast<uint64_t>(kSimWindowMs * 1e9);
  } else {
    count = opt.trace ? (kNativeRounds + 1) / 2 : kNativeRounds;
    proto.warm_ps = static_cast<uint64_t>(kNativeWarmupS * kPsPerSecond);
    proto.window_ps = static_cast<uint64_t>(
        opt.seconds / (opt.trace ? 2 * count : count) * kPsPerSecond);
  }
  for (uint32_t r = 0; r < count; ++r) {
    proto.index = r;
    proto.traced = false;
    plans.push_back(proto);
    if (opt.trace) {
      proto.traced = true;
      plans.push_back(proto);
    }
  }

  Result result;
  result.workload = def->name;
  std::vector<RoundOut> rounds(plans.size());
  std::string chrome;
  // Latency classes: all, read-only, updating. A native round holds tens of
  // thousands of operations, so each is summarized on its own (and its
  // samples freed before the next round); simulated rounds hold a few
  // hundred and are pooled.
  struct NativeRound {
    double tput = 0.0;
    std::array<LatencySummary, 3> latency;
  };
  std::vector<NativeRound> native;
  std::vector<double> pooled_read, pooled_update;
  for (size_t i = 0; i < plans.size(); ++i) {
    // Spans of the first traced round are exported.
    rounds[i] = RunRound(*def, mix, opt, plans[i], opt.trace && i == 1);
    RoundOut& r = rounds[i];
    if (!r.traced) {
      if (simulated) {
        pooled_read.insert(pooled_read.end(), r.lat_read.begin(), r.lat_read.end());
        pooled_update.insert(pooled_update.end(), r.lat_update.begin(), r.lat_update.end());
      } else {
        native.push_back({RoundTput(r), SummarizeClasses(&r.lat_read, &r.lat_update)});
      }
    }
    r.lat_read = {};
    r.lat_update = {};
    result.attempted += r.ops;
    result.failed += r.failed;
    for (const std::string& f : r.failures) {
      if (result.failures.size() < 8) {
        result.failures.push_back(f);
      }
    }
    chrome += r.chrome;
  }
  // Under the simulator a traced round must replay its untraced twin
  // exactly: recording spans costs no modelled time.
  if (simulated && opt.trace) {
    for (size_t i = 0; i + 1 < rounds.size(); i += 2) {
      if (rounds[i].stats != rounds[i + 1].stats) {
        result.failures.push_back("tracing perturbed the modelled run");
        result.failed += rounds[i + 1].ops;
      }
    }
  }

  const std::string lat_tag = simulated ? "modelled" : "measured";
  const double peak_rss = PeakRssMb();
  // Native end-to-end numbers are medians over every untraced round; the
  // slowest and fastest round show in the tput_ops_s base.
  std::array<std::vector<LatencySummary>, 3> latency;
  std::vector<double> tput, setup;
  std::string round_base;
  if (simulated) {
    const auto classes = SummarizeClasses(&pooled_read, &pooled_update);
    for (size_t k = 0; k < classes.size(); ++k) {
      latency[k].push_back(classes[k]);
    }
  } else if (!native.empty()) {
    for (const NativeRound& n : native) {
      tput.push_back(n.tput);
      for (size_t k = 0; k < n.latency.size(); ++k) {
        latency[k].push_back(n.latency[k]);
      }
    }
    const auto [lo, hi] = std::minmax_element(tput.begin(), tput.end());
    round_base = " of " + std::to_string(tput.size()) + " rounds" +
                 Base(" (%.0f..%.0f per s)", *lo, *hi);
  }
  double window_s = 0.0, in_window = 0.0, user_bytes = 0.0, wal_bytes = 0.0;
  double modelled_s = 0.0, host_run_s = 0.0;
  for (const RoundOut& r : rounds) {
    setup.push_back(r.setup_s);
    wal_bytes += static_cast<double>(r.wal_bytes);
    user_bytes += static_cast<double>(r.user_bytes);
    modelled_s += r.modelled_s;
    host_run_s += r.host_run_s;
    if (r.traced) {
      continue;
    }
    window_s += r.window_s;
    in_window += static_cast<double>(r.in_window);
  }

  // ---- end-to-end (untraced rounds) --------------------------------------
  std::vector<Metric>& e2e = result.end_to_end;
  // Native rounds are noisy, so the median round counts; simulated rounds
  // are short and deterministic, so they are pooled.
  e2e.push_back(simulated
                    ? Metric{"tput_ops_s", in_window / window_s, "1/s", lat_tag,
                             Base("%.0f completions in %.3f modelled s of measured windows",
                                  in_window, window_s)}
                    : Metric{"tput_ops_s", Median(tput), "1/s", lat_tag,
                             "completions per second of the measured window, median" +
                                 round_base});
  AddLatency(&e2e, "op", latency[0], lat_tag);
  AddLatency(&e2e, "read", latency[1], lat_tag);
  AddLatency(&e2e, "update", latency[2], lat_tag);
  e2e.push_back({"setup_s", Median(setup), "s", "measured",
                 "median of " + std::to_string(setup.size()) +
                     " set-ups: TmSystem construction, load, first operation"});
  e2e.push_back({"peak_rss_mb", peak_rss, "MB", "measured",
                 "ru_maxrss of this process plus its largest reaped child"});
  e2e.push_back(RatioMetric("error_ratio",
                            {static_cast<double>(result.failed),
                             static_cast<double>(result.attempted)},
                            "ratio", "count", "failed", "attempted"));
  if (def->durability != DurabilityMode::kOff) {
    e2e.push_back(RatioMetric("log_bytes_per_user_byte", {wal_bytes, user_bytes}, "ratio",
                              "count", "wal_bytes", "user_bytes"));
  }
  if (simulated) {
    e2e.push_back({"modelled_tput_ops_ms", in_window / (window_s * 1e3), "1/ms", "modelled",
                   Base("%.0f completions in %.0f modelled ms", in_window, window_s * 1e3)});
    const LatencySummary& s = latency[0].front();
    e2e.push_back({"modelled_op_p99_us", s.p99, "us", "modelled",
                   QuantileLabel(s.p99_q) + " of n=" + std::to_string(s.samples)});
    e2e.push_back({"sim_modelled_ms_per_s", modelled_s * 1e3 / host_run_s, "ms/s", "measured",
                   Base("%.0f modelled ms over %.3f host s", modelled_s * 1e3, host_run_s)});
  }

  // ---- per-layer (counters from every round, spans from traced ones) ----
  tm2c::TxStats st;
  tm2c::DtmServiceStats svc;
  std::vector<double> part_requests;
  Rusage usage;
  double ops_all = 0.0, nodes = 0.0, keys = 0.0, scans = 0.0, scan_entries = 0.0;
  double events = 0.0, checkpoints = 0.0;
  std::vector<double> tput_untraced, tput_traced;
  LayerTotals layers;
  for (const RoundOut& r : rounds) {
    st.Merge(r.stats);
    if (part_requests.size() < r.services.size()) {
      part_requests.resize(r.services.size());
    }
    for (size_t p = 0; p < r.services.size(); ++p) {
      const tm2c::DtmServiceStats& s = r.services[p];
      part_requests[p] += static_cast<double>(s.requests);
      svc.requests += s.requests;
      svc.releases += s.releases;
      svc.notifications_sent += s.notifications_sent;
      svc.stale_requests_refused += s.stale_requests_refused;
      svc.batch_requests += s.batch_requests;
      svc.batch_entries += s.batch_entries;
      svc.commit_records += s.commit_records;
      svc.log_flushes += s.log_flushes;
    }
    usage.cpu_s += r.usage.cpu_s;
    usage.ctx += r.usage.ctx;
    ops_all += static_cast<double>(r.ops);
    nodes += static_cast<double>(r.nodes_in_use);
    keys += static_cast<double>(r.resident_keys);
    scans += static_cast<double>(r.scans);
    scan_entries += static_cast<double>(r.scan_entries);
    events += static_cast<double>(r.events);
    checkpoints += static_cast<double>(r.checkpoints);
    // Tracing costs no modelled time, so its overhead shows in host time.
    (r.traced ? tput_traced : tput_untraced).push_back(simulated ? HostTput(r) : RoundTput(r));
    if (r.traced) {
      layers.Merge(r.layers);
    }
  }
  const double untraced_tput = Median(tput_untraced);
  const double traced_tput = Median(tput_traced);
  const double commits = static_cast<double>(st.commits);
  const double aborts = static_cast<double>(st.aborts);
  const double attempts = commits + aborts;
  const std::string ctag = "count";
  std::vector<Metric>& pl = result.per_layer;

  // apps
  std::vector<double> read_calls = layers.apps_us[static_cast<size_t>(AppsCall::kGet)];
  const std::vector<double>& scan_calls = layers.apps_us[static_cast<size_t>(AppsCall::kScan)];
  read_calls.insert(read_calls.end(), scan_calls.begin(), scan_calls.end());
  const auto add_calls = [&](const std::string& name, std::vector<double> samples,
                             bool always) {
    if (samples.empty() && !always) {
      return;
    }
    const LatencySummary s = Summarize(&samples);
    const std::string n = "n=" + std::to_string(s.samples) + " calls";
    pl.push_back({name + ".p50", s.p50, "us", lat_tag, "p50 of " + n});
    pl.push_back({name + ".p99", s.p99, "us", lat_tag, QuantileLabel(s.p99_q) + " of " + n});
  };
  add_calls("apps.read_us", read_calls, true);
  add_calls("apps.update_us", layers.apps_us[static_cast<size_t>(AppsCall::kUpdate)], true);
  add_calls("apps.get_us", layers.apps_us[static_cast<size_t>(AppsCall::kGet)], false);
  add_calls("apps.scan_us", scan_calls, false);
  pl.push_back(RatioMetric("apps.scan_entries_per_call", {scan_entries, scans}, "count", ctag,
                           "entries", "scan_calls"));
  pl.push_back(RatioMetric("apps.nodes_per_key", {nodes, keys}, "ratio", ctag, "nodes_in_use",
                           "resident_keys"));

  // tm
  const double span_us = 1e6;  // ps per us
  const auto kind_count = [&](SpanKind k) {
    return static_cast<double>(layers.count[static_cast<size_t>(k)]);
  };
  const auto kind_dur = [&](SpanKind k) {
    return static_cast<double>(layers.dur_ps[static_cast<size_t>(k)]) / span_us;
  };
  pl.push_back(RatioMetric("tm.attempts_per_commit", {attempts, commits}, "ratio", ctag,
                           "attempts", "commits"));
  pl.push_back(RatioMetric("tm.attempt_us", {kind_dur(SpanKind::kAttempt),
                                             kind_count(SpanKind::kAttempt)},
                           "us", lat_tag, "attempt_us_total", "attempts"));
  pl.push_back(RatioMetric("tm.wasted_share",
                           {static_cast<double>(layers.wasted_ps) / span_us,
                            kind_dur(SpanKind::kExecute)},
                           "ratio", lat_tag, "us_outside_final_attempt", "execute_us"));
  pl.push_back(RatioMetric("tm.commit_us", {kind_dur(SpanKind::kCommit),
                                            kind_count(SpanKind::kCommit)},
                           "us", lat_tag, "commit_us_total", "traced_commits"));
  pl.push_back(RatioMetric("tm.msgs_per_commit", {static_cast<double>(st.messages_sent), commits},
                           "count", ctag, "messages_sent", "commits"));
  pl.push_back(RatioMetric("tm.stripes_per_msg",
                           {static_cast<double>(st.lock_acquires),
                            static_cast<double>(svc.requests)},
                           "count", ctag, "stripes_requested", "acquire_requests"));
  pl.push_back(RatioMetric("tm.reads_per_commit", {static_cast<double>(st.reads), commits},
                           "count", ctag, "reads", "commits"));
  pl.push_back(RatioMetric("tm.writes_per_commit", {static_cast<double>(st.writes), commits},
                           "count", ctag, "writes", "commits"));

  // cm
  pl.push_back(RatioMetric("cm.abort_ratio", {aborts, attempts}, "ratio", ctag, "aborts",
                           "attempts"));
  pl.push_back(RatioMetric("cm.conflicts_per_1k_attempts.raw",
                           {1000.0 * static_cast<double>(st.raw_conflicts), attempts}, "count",
                           ctag, "1000*raw", "attempts"));
  pl.push_back(RatioMetric("cm.conflicts_per_1k_attempts.waw",
                           {1000.0 * static_cast<double>(st.waw_conflicts), attempts}, "count",
                           ctag, "1000*waw", "attempts"));
  pl.push_back(RatioMetric("cm.conflicts_per_1k_attempts.war",
                           {1000.0 * static_cast<double>(st.war_conflicts), attempts}, "count",
                           ctag, "1000*war", "attempts"));
  pl.push_back(RatioMetric("cm.notify_abort_share",
                           {static_cast<double>(st.notify_aborts), aborts}, "ratio", ctag,
                           "notify_aborts", "aborts"));
  pl.push_back({"cm.max_attempts_per_tx", static_cast<double>(st.max_attempts_per_tx), "count",
                ctag, "worst transaction over " + std::to_string(rounds.size()) + " rounds"});

  // dslock
  const double requests = static_cast<double>(svc.requests);
  pl.push_back(RatioMetric("dslock.requests_per_commit", {requests, commits}, "count", ctag,
                           "requests", "commits"));
  pl.push_back(RatioMetric(
      "dslock.entries_per_request",
      {requests - static_cast<double>(svc.batch_requests) + static_cast<double>(svc.batch_entries),
       requests},
      "count", ctag, "entries", "requests"));
  pl.push_back(RatioMetric("dslock.releases_per_commit",
                           {static_cast<double>(svc.releases), commits}, "count", ctag,
                           "releases", "commits"));
  pl.push_back(RatioMetric("dslock.notifications_per_commit",
                           {static_cast<double>(svc.notifications_sent), commits}, "count", ctag,
                           "notifications", "commits"));
  pl.push_back({"dslock.stale_refused", static_cast<double>(svc.stale_requests_refused), "count",
                ctag, Base("stale-epoch refusals among %.0f requests", requests)});
  {
    double max_req = 0.0, sum_req = 0.0;
    for (const double r : part_requests) {
      max_req = std::max(max_req, r);
      sum_req += r;
    }
    const double mean = part_requests.empty() ? 0.0 : sum_req / part_requests.size();
    pl.push_back(RatioMetric("dslock.partition_skew", {max_req, mean}, "ratio", ctag,
                             "max_partition_requests", "mean_partition_requests"));
  }

  // runtime
  pl.push_back(RatioMetric("runtime.acquire_rtt_us",
                           {static_cast<double>(st.acquire_time) / span_us, requests}, "us",
                           lat_tag, "acquire_wait_us", "acquire_requests"));
  pl.push_back(RatioMetric("runtime.cpu_us_per_op", {usage.cpu_s * 1e6, ops_all}, "us",
                           "measured", "cpu_us_self_and_children", "ops"));
  pl.push_back(RatioMetric("runtime.ctx_switches_per_op", {usage.ctx, ops_all}, "count",
                           "measured", "context_switches", "ops"));

  // durability
  const double log_wait_us = static_cast<double>(st.commit_log_wait) / span_us;
  pl.push_back(RatioMetric("durability.records_per_flush",
                           {static_cast<double>(svc.commit_records),
                            static_cast<double>(svc.log_flushes)},
                           "count", ctag, "records", "flushes"));
  pl.push_back(RatioMetric("durability.commit_log_wait_share",
                           {log_wait_us, static_cast<double>(st.busy_time) / span_us}, "ratio",
                           lat_tag, "commit_log_wait_us", "attempt_busy_us"));
  if (def->durability != DurabilityMode::kOff) {
    pl.push_back(RatioMetric("durability.commit_log_wait_us",
                             {log_wait_us, static_cast<double>(st.commit_log_msgs)}, "us",
                             lat_tag, "commit_log_wait_us", "commit_log_msgs"));
  }
  pl.push_back(RatioMetric("durability.wal_bytes_per_commit", {wal_bytes, commits}, "count",
                           ctag, "wal_bytes", "commits"));
  pl.push_back({"durability.checkpoints", checkpoints, "count", ctag,
                "periodic checkpoints over " + std::to_string(rounds.size()) + " rounds"});
  pl.push_back(RatioMetric("durability.log_bytes_per_user_byte", {wal_bytes, user_bytes},
                           "ratio", ctag, "wal_bytes", "user_bytes"));

  // sim
  pl.push_back(RatioMetric("sim.events_per_commit", {events, commits}, "count", ctag, "events",
                           "commits"));
  const double sim_host_s = simulated ? host_run_s : 0.0;
  pl.push_back(RatioMetric("sim.events_per_host_ms", {events, sim_host_s * 1e3}, "1/ms",
                           "measured", "events", "host_ms"));
  if (simulated) {
    pl.push_back(RatioMetric("sim.host_ns_per_event", {host_run_s * 1e9, events}, "ns",
                             "measured", "host_ns", "events"));
  }
  pl.push_back(RatioMetric("sim.modelled_tput_ops_ms",
                           {simulated ? in_window : 0.0, simulated ? window_s * 1e3 : 0.0},
                           "1/ms", "modelled",
                           "completions", "modelled_window_ms"));
  pl.push_back(RatioMetric("sim.modelled_ms_per_host_s", {modelled_s * 1e3, sim_host_s},
                           "ms/s", "measured", "modelled_ms", "host_s"));

  // trace: overhead and the self-time identity
  const double root_us = static_cast<double>(layers.root_ps) / span_us;
  const double self_us = static_cast<double>(layers.self_ps) / span_us;
  const auto self_of = [&](SpanKind k) {
    return static_cast<double>(layers.self_kind_ps[static_cast<size_t>(k)]) / span_us;
  };
  const double traced_ops = static_cast<double>(layers.ops);
  pl.push_back({"trace.overhead_share",
                untraced_tput == 0.0 ? 0.0 : 1.0 - traced_tput / untraced_tput, "ratio",
                "measured",
                Base("1 - traced/untraced host commit rate (%.1f / %.1f per s)", traced_tput,
                     untraced_tput)});
  pl.push_back(RatioMetric("trace.self_harness_us", {self_of(SpanKind::kOp), traced_ops}, "us",
                           lat_tag, "op_self_us", "traced_ops"));
  pl.push_back(RatioMetric("trace.self_tm_us",
                           {self_of(SpanKind::kExecute) + self_of(SpanKind::kAttempt) +
                                self_of(SpanKind::kCommit),
                            traced_ops},
                           "us", lat_tag, "tm_self_us", "traced_ops"));
  pl.push_back(RatioMetric("trace.self_apps_us", {self_of(SpanKind::kApps), traced_ops}, "us",
                           lat_tag, "apps_self_us", "traced_ops"));
  // Spans are opened one after another, so the self times add up to the
  // root by construction; perfbench_test holds this to 1e-9.
  pl.push_back(RatioMetric("trace.self_sum_error", {std::fabs(self_us - root_us), root_us},
                           "ratio", lat_tag, "|sum_self - sum_root| us", "sum_root_us"));

  if (!opt.trace_out.empty() && !chrome.empty()) {
    chrome.resize(chrome.size() - 2);  // drop the trailing ",\n"
    std::ofstream f(opt.trace_out);
    f << "{\"traceEvents\":[\n" << chrome << "\n]}\n";
  }
  return result;
}

}  // namespace perfbench
