#include "perfbench/src/spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

const char* SpanName(SpanKind kind, uint8_t detail) {
  switch (kind) {
    case SpanKind::kOp:
      return "op";
    case SpanKind::kExecute:
      return "tm.execute";
    case SpanKind::kAttempt:
      return detail != 0 ? "tm.attempt.committed" : "tm.attempt.aborted";
    case SpanKind::kApps:
      switch (static_cast<AppsCall>(detail)) {
        case AppsCall::kGet:
          return "apps.get";
        case AppsCall::kUpdate:
          return "apps.update";
        case AppsCall::kScan:
          return "apps.scan";
      }
      return "apps.?";
    case SpanKind::kCommit:
      return "tm.commit";
  }
  return "?";
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      const Span& p = spans[static_cast<size_t>(s.parent)];
      const uint64_t lo = std::max(s.start, p.start);
      const uint64_t hi = std::min(s.end, p.end);
      if (lo < hi) {
        children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
      }
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (!open || lo > cur_hi) {
        if (open) {
          covered += cur_hi - cur_lo;
        }
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (open) {
      covered += cur_hi - cur_lo;
    }
    const uint64_t dur = spans[i].end > spans[i].start ? spans[i].end - spans[i].start : 0;
    self[i] = dur - std::min(dur, covered);
  }
  return self;
}

void SpanStore::Append(const OpTrace& op) {
  op_begin_.push_back(static_cast<uint32_t>(spans_.size()));
  spans_.insert(spans_.end(), op.spans().begin(), op.spans().end());
}

std::vector<Span> SpanStore::Op(size_t i) const {
  const size_t lo = op_begin_[i];
  const size_t hi = i + 1 < op_begin_.size() ? op_begin_[i + 1] : spans_.size();
  return std::vector<Span>(spans_.begin() + static_cast<std::ptrdiff_t>(lo),
                           spans_.begin() + static_cast<std::ptrdiff_t>(hi));
}

void SpanStore::ExportChrome(uint32_t pid, uint32_t tid, size_t max_ops,
                             std::string* out) const {
  char line[256];
  for (size_t i = 0; i < std::min(max_ops, ops()); ++i) {
    for (const Span& s : Op(i)) {
      std::snprintf(line, sizeof(line),
                    "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,"
                    "\"tid\":%u},\n",
                    SpanName(s.kind, s.detail), static_cast<double>(s.start) / 1e6,
                    static_cast<double>(s.end - s.start) / 1e6, pid, tid);
      *out += line;
    }
  }
}

void LayerTotals::Add(const std::vector<Span>& spans) {
  if (spans.empty()) {
    return;
  }
  const std::vector<uint64_t> self = SelfTimes(spans);
  ++ops;
  root_ps += spans[0].end - spans[0].start;
  uint64_t exec_ps = 0, kept_ps = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto k = static_cast<size_t>(s.kind);
    const uint64_t dur = s.end - s.start;
    ++count[k];
    dur_ps[k] += dur;
    self_kind_ps[k] += self[i];
    self_ps += self[i];
    switch (s.kind) {
      case SpanKind::kExecute:
        exec_ps += dur;
        break;
      case SpanKind::kAttempt:
        if (s.detail != 0) {
          ++attempts_committed;
          kept_ps += dur;
        } else {
          ++attempts_aborted;
        }
        break;
      case SpanKind::kCommit:
        kept_ps += dur;
        break;
      case SpanKind::kApps:
        apps_us[s.detail].push_back(static_cast<double>(dur) / 1e6);
        break;
      case SpanKind::kOp:
        break;
    }
  }
  wasted_ps += exec_ps - std::min(exec_ps, kept_ps);
}

void LayerTotals::Merge(const LayerTotals& o) {
  ops += o.ops;
  root_ps += o.root_ps;
  self_ps += o.self_ps;
  for (size_t k = 0; k < kNumSpanKinds; ++k) {
    count[k] += o.count[k];
    dur_ps[k] += o.dur_ps[k];
    self_kind_ps[k] += o.self_kind_ps[k];
  }
  attempts_committed += o.attempts_committed;
  attempts_aborted += o.attempts_aborted;
  wasted_ps += o.wasted_ps;
  for (size_t c = 0; c < kNumAppsCalls; ++c) {
    apps_us[c].insert(apps_us[c].end(), o.apps_us[c].begin(), o.apps_us[c].end());
  }
}

}  // namespace perfbench
