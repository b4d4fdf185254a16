// Host-side measurement helpers: process CPU time and peak RSS from
// getrusage, order statistics over repeated samples, and the machine
// fingerprint printed with every result.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Process CPU seconds so far (all threads), split into user and sys.
struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
  double total() const { return user_s + sys_s; }
};
CpuTimes process_cpu();

/// Peak resident set size of this process in MiB (ru_maxrss).
double peak_rss_mb();

/// Median / quartiles of a sample, as Python's statistics.quantiles(n=4)
/// ("exclusive" method) gives them; a single sample is its own quartiles.
struct Quartiles {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  std::size_t n = 0;
};
Quartiles quartiles(std::vector<double> values);

struct Fingerprint {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  bool obs_enabled = false;
  std::size_t width = 1;  ///< jobs or shards of the parallel run
  /// False for any build type but Release: such numbers are not comparable.
  bool release() const { return build_type == "Release"; }
  std::string json() const;
};
Fingerprint machine_fingerprint();

/// min(4, nproc): the jobs of paper_sweep; mega shards at max(2, this).
std::size_t parallel_width();

}  // namespace perfbench
