// Operation generators for the benchmark workloads.
//
// The program under test never sees a seed: each application core draws
// its operations from an OpStream seeded from (run seed, round, core), and
// only the generated operation reaches the store. The same seed therefore
// yields the same operation sequence on every core, independent of timing
// (a faster run just consumes a longer prefix of the same sequence).
#ifndef PERFBENCH_SRC_GEN_H_
#define PERFBENCH_SRC_GEN_H_

#include <cstdint>

namespace perfbench {

// SplitMix64 (Steele et al.): the benchmark's own generator, independent
// of the program's Rng so a change to the program cannot reshape the load.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// Decorrelated stream seed for one application core of one round.
uint64_t StreamSeed(uint64_t seed, uint32_t round, uint32_t core);

// Zipfian ranks over [0, n), Gray et al.'s generator as used by YCSB.
class Zipfian {
 public:
  Zipfian(uint64_t n, double theta);
  uint64_t Rank(double u) const;  // u uniform in [0, 1); 0 is the hottest

 private:
  uint64_t n_;
  double theta_, alpha_, zetan_, eta_;
};

// Record stamps: a kv record is [stamp, Word(stamp, 1), ..., Word(stamp,
// n-1)], so a read that mixes two versions is detectable from the record
// alone.
uint64_t StampWord(uint64_t stamp, uint32_t word);

enum class OpKind : uint8_t {
  kGet,         // kv: read one record
  kUpdate,      // kv: overwrite one record under a fresh stamp
  kNewOrder,    // oltp
  kPayment,     // oltp
  kOrderStatus, // oltp
  kBalance,     // bank
  kTransfer,    // bank
};

bool IsReadOnly(OpKind kind);

// One generated operation. Argument meaning per kind:
//   get: a = key                update: a = key, b = new stamp
//   new-order: a = warehouse, b = lines      payment: a = warehouse, b = amount
//   order-status: a = warehouse, b = orders back
//   balance: -                  transfer: a = from, b = to
struct Op {
  OpKind kind = OpKind::kGet;
  uint64_t a = 0;
  uint64_t b = 0;

  bool operator==(const Op& o) const { return kind == o.kind && a == o.a && b == o.b; }
};

// The three traffic mixes. Sizes are fixed per workload (see workloads.cc).
struct Mix {
  enum class Kind : uint8_t { kKv, kOltp, kBank } kind = Mix::Kind::kKv;
  uint64_t keys = 0;                // kv: keys 1..keys
  const Zipfian* zipf = nullptr;    // kv: scrambled zipfian key choice
  uint32_t warehouses = 0;          // oltp
  uint32_t max_lines = 0;           // oltp: lines per order in [1, max_lines]
  uint32_t status_back = 0;         // oltp: order-status looks back [1, status_back]
  uint32_t accounts = 0;            // bank
};

class OpStream {
 public:
  OpStream(const Mix& mix, uint64_t seed) : mix_(&mix), rng_(seed) {}
  Op Next();

 private:
  uint64_t NextKey();

  const Mix* mix_;
  SplitMix64 rng_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_GEN_H_
