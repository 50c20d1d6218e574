// Spans recorded by the benchmark around its calls into each layer.
//
// One operation produces a small tree:
//
//   op (root)                   the whole generated operation
//   └─ tm.execute               TxRuntime::Execute, retries included
//      ├─ tm.attempt            one per body invocation (committed/aborted)
//      │  └─ apps.<call>        each Tx* store call inside the body
//      └─ tm.commit             last body return to Execute return
//
// Spans are kept in memory for the whole round and aggregated (and
// optionally exported as Chrome trace events) only after it ends. A
// span's self time is its duration minus the part of its interval that
// its children cover, so the self times of an operation's spans sum to the
// root's duration: that identity is checked on every traced run.
#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : uint8_t { kOp, kExecute, kAttempt, kApps, kCommit };
constexpr size_t kNumSpanKinds = 5;

// Which store call an apps span wraps; the class (get / update / scan)
// decides which apps.* metric it feeds.
enum class AppsCall : uint8_t {
  kGet,         // KvStore::TxGet (kv get, oltp warehouse read)
  kUpdate,      // KvStore::TxReadModifyWrite, OrderedIndex::TxPut/TxDelete,
                // Bank::TxTransfer
  kScan,        // OrderedIndex::TxRangeScan, Bank::TxBalance
};
constexpr size_t kNumAppsCalls = 3;

const char* SpanName(SpanKind kind, uint8_t detail);

struct Span {
  uint64_t start = 0;  // picoseconds; modelled time under the simulator
  uint64_t end = 0;
  int32_t parent = -1;  // index within the operation's spans; -1 = root
  SpanKind kind = SpanKind::kOp;
  // kAttempt: 1 = committed, 0 = aborted. kApps: the AppsCall.
  uint8_t detail = 0;
};

// The spans of one operation, root first.
class OpTrace {
 public:
  void Clear() { spans_.clear(); }
  int32_t Begin(SpanKind kind, int32_t parent, uint64_t now, uint8_t detail = 0) {
    Span s;
    s.start = now;
    s.end = now;
    s.parent = parent;
    s.kind = kind;
    s.detail = detail;
    spans_.push_back(s);
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t index, uint64_t now) { spans_[static_cast<size_t>(index)].end = now; }
  Span& at(int32_t index) { return spans_[static_cast<size_t>(index)]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Self time of every span (same indexing as `spans`): its duration minus
// the union of its children's intervals, each clipped to the parent.
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

// A round's worth of traced operations, kept whole until aggregation.
class SpanStore {
 public:
  void Append(const OpTrace& op);
  size_t ops() const { return op_begin_.size(); }
  // Spans of the i-th stored operation.
  std::vector<Span> Op(size_t i) const;
  // Appends the first `max_ops` operations as Chrome trace-event records
  // ("ph": "X", microsecond timestamps) to `out`, one object per line,
  // each followed by a comma.
  void ExportChrome(uint32_t pid, uint32_t tid, size_t max_ops, std::string* out) const;

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> op_begin_;
};

// Per-layer totals over many traced operations.
struct LayerTotals {
  uint64_t ops = 0;
  uint64_t root_ps = 0;   // sum of root durations
  uint64_t self_ps = 0;   // sum of every span's self time
  std::array<uint64_t, kNumSpanKinds> count{};
  std::array<uint64_t, kNumSpanKinds> dur_ps{};
  std::array<uint64_t, kNumSpanKinds> self_kind_ps{};
  uint64_t attempts_committed = 0;
  uint64_t attempts_aborted = 0;
  // Execute time not spent in the final (committed) attempt or its commit:
  // aborted attempts, failed commits, back-off.
  uint64_t wasted_ps = 0;
  std::array<std::vector<double>, kNumAppsCalls> apps_us;  // per-call durations

  void Add(const std::vector<Span>& spans);
  void Merge(const LayerTotals& other);
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
