// perfbench: runs one benchmark workload and prints its result as one JSON
// document on standard output.
//
//   perfbench --workload kv-zipf-threads --seed 7 --seconds 10 --trace 0 \
//             [--run-root DIR] [--trace-out FILE]
//
// perfbench/run.py builds this binary, runs it under a deadline and turns
// the document into the benchmark report.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Metrics(const std::vector<Metric>& metrics) {
  std::string out = "[";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "\n    " : ",\n    ");
    out += "{\"name\": " + Quote(m.name) + ", \"value\": " + Number(m.value) +
           ", \"unit\": " + Quote(m.unit) + ", \"tag\": " + Quote(m.tag) +
           ", \"base\": " + Quote(m.base) + "}";
  }
  return out + "]";
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--run-root DIR] [--trace-out FILE]\nworkloads:",
               argv0);
  for (const std::string& w : WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(argv[0]);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--run-root") {
      opt.run_root = value;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (opt.workload.empty() || opt.seconds <= 0.0) {
    return Usage(argv[0]);
  }
  const Result r = RunWorkload(opt);
  std::string failures = "[";
  for (size_t i = 0; i < r.failures.size(); ++i) {
    failures += (i == 0 ? "" : ", ") + Quote(r.failures[i]);
  }
  failures += "]";
  std::printf(
      "{\n  \"workload\": %s,\n  \"seed\": %llu,\n  \"trace\": %d,\n  \"attempted\": %llu,\n"
      "  \"failed\": %llu,\n  \"failures\": %s,\n  \"end_to_end\": %s,\n  \"per_layer\": %s\n}\n",
      Quote(r.workload).c_str(), static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
      static_cast<unsigned long long>(r.attempted), static_cast<unsigned long long>(r.failed),
      failures.c_str(), Metrics(r.end_to_end).c_str(), Metrics(r.per_layer).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
