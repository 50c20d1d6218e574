#include "perfbench/src/gen.h"

#include <cmath>
#include <stdexcept>

namespace perfbench {

uint64_t StreamSeed(uint64_t seed, uint32_t round, uint32_t core) {
  SplitMix64 mix(seed ^ (uint64_t{round} << 32) ^ (uint64_t{core} << 48));
  return mix.Next();
}

namespace {

double Zeta(uint64_t n, double theta) {
  double sum = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

}  // namespace

Zipfian::Zipfian(uint64_t n, double theta) : n_(n), theta_(theta) {
  if (n < 2 || theta <= 0.0 || theta >= 1.0) {
    throw std::invalid_argument("Zipfian needs n >= 2 and theta in (0, 1)");
  }
  zetan_ = Zeta(n, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - Zeta(2, theta) / zetan_);
}

uint64_t Zipfian::Rank(double u) const {
  const double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < 1.0 + std::pow(0.5, theta_)) {
    return 1;
  }
  const auto rank =
      static_cast<uint64_t>(static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= n_ ? n_ - 1 : rank;
}

uint64_t StampWord(uint64_t stamp, uint32_t word) {
  SplitMix64 mix(stamp * 0x9e3779b97f4a7c15ull + word);
  return mix.Next();
}

bool IsReadOnly(OpKind kind) {
  return kind == OpKind::kGet || kind == OpKind::kOrderStatus || kind == OpKind::kBalance;
}

uint64_t OpStream::NextKey() {
  // YCSB's scrambled zipfian: hash the rank so hot keys spread over the
  // keyspace (and over the store's partitions).
  uint64_t h = mix_->zipf->Rank(rng_.Unit()) * 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return 1 + h % mix_->keys;
}

Op OpStream::Next() {
  Op op;
  switch (mix_->kind) {
    case Mix::Kind::kKv:
      // YCSB-A: 50% read, 50% whole-record overwrite.
      op.a = NextKey();
      if (rng_.Below(100) < 50) {
        op.kind = OpKind::kGet;
      } else {
        op.kind = OpKind::kUpdate;
        op.b = rng_.Next() | 1;  // stamp 0 is never written
      }
      return op;
    case Mix::Kind::kOltp: {
      // TPC-C's three short transactions: 45% new-order, 43% payment,
      // 12% order-status.
      const uint64_t roll = rng_.Below(100);
      op.a = 1 + rng_.Below(mix_->warehouses);
      if (roll < 45) {
        op.kind = OpKind::kNewOrder;
        op.b = 1 + rng_.Below(mix_->max_lines);
      } else if (roll < 88) {
        op.kind = OpKind::kPayment;
        op.b = 1 + rng_.Below(500);
      } else {
        op.kind = OpKind::kOrderStatus;
        op.b = 1 + rng_.Below(mix_->status_back);
      }
      return op;
    }
    case Mix::Kind::kBank:
      // Figure 5(a): 20% balance, 80% single-unit transfer.
      if (rng_.Below(100) < 20) {
        op.kind = OpKind::kBalance;
      } else {
        op.kind = OpKind::kTransfer;
        op.a = rng_.Below(mix_->accounts);
        op.b = rng_.Below(mix_->accounts - 1);
        if (op.b >= op.a) {
          ++op.b;  // distinct accounts, still uniform
        }
      }
      return op;
  }
  return op;
}

}  // namespace perfbench
