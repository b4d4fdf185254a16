// l3bench — the repository benchmark.
//
//   l3bench --workload <paper_sweep|failover_costed|mega>
//           --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 runs the
// traced build and reports the per-layer ledger. Every run prints the
// machine fingerprint, each metric with its unit (and quartiles for
// repeated timings), and the pass/fail of each correctness check. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Exit code: 0 when every check passed, 1 when one failed,
// 2 on bad arguments or an error (no result line then).
#include "machine.h"
#include "workloads.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

namespace {

using namespace perfbench;

struct Args {
  Workload workload = Workload::kPaperSweep;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "l3bench: " << error
            << "\nusage: l3bench --workload <paper_sweep|failover_costed|"
               "mega> --seed <n> --seconds <s> --trace <0|1>\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto w = parse_workload(value);
      if (!w) usage("unknown workload '" + value + "'");
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0)) {
        usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      args.trace = value == "1";
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Fingerprint fp = machine_fingerprint();
  std::cout << "# l3bench workload=" << workload_name(args.workload)
            << " seed=" << args.seed << " seconds=" << args.seconds
            << " trace=" << (args.trace ? 1 : 0) << "\n";
  if (!fp.release()) {
    std::cout << "# WARNING: " << fp.build_type
              << " build; timings are not comparable with Release results\n";
  }

  RunReport report;
  try {
    report = args.trace ? run_traced(args.workload, args.seed, args.seconds)
                        : run_untraced(args.workload, args.seed, args.seconds);
  } catch (const std::exception& e) {
    std::cerr << "l3bench: " << e.what() << "\n";
    return 2;
  }

  fp.width = report.width;
  std::cout << "fingerprint " << fp.json() << "\n";
  for (const Metric& m : report.metrics) {
    std::cout << "metric " << m.name << " = " << num(m.value) << " " << m.unit;
    if (m.q) {
      std::cout << "  [min " << num(m.q->min) << ", q1 " << num(m.q->q1)
                << ", q3 " << num(m.q->q3) << ", max " << num(m.q->max)
                << ", n " << m.q->n << "]";
    }
    std::cout << "\n";
  }
  for (const Check& c : report.checks) {
    std::cout << "check " << c.name << ": " << (c.pass ? "PASS" : "FAIL")
              << " (" << c.detail << ")\n";
  }
  if (args.trace) std::cout << "spans " << report.spans_json << "\n";

  const auto& required =
      args.trace ? per_layer_metric_names() : end_to_end_metric_names();
  std::string metrics;
  for (const std::string& name : required) {
    const Metric* m = report.find(name);
    if (m == nullptr) {
      std::cerr << "l3bench: metric " << name << " was not measured\n";
      return 2;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + num(m->value) +
               ", \"unit\": \"" + m->unit + "\"}";
  }
  const std::size_t failed = report.failed_checks();
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << report.sim_calls
            << ", \"failed\": " << failed << ", \"metrics\": {" << metrics
            << "}}" << std::endl;
  return failed == 0 ? 0 : 1;
}
