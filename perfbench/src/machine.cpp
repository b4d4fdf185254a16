#include "machine.h"

#include "l3/obs/recorder.h"  // L3_OBS_ENABLED default

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

CpuTimes process_cpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return CpuTimes{secs(ru.ru_utime), secs(ru.ru_stime)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  q.n = values.size();
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  auto at = [&](double pos) {  // 1-based position, linear interpolation
    const double clamped =
        std::clamp(pos, 1.0, static_cast<double>(values.size()));
    const auto lo = static_cast<std::size_t>(clamped) - 1;
    const double frac = clamped - static_cast<double>(lo + 1);
    if (lo + 1 >= values.size()) return values.back();
    return values[lo] + frac * (values[lo + 1] - values[lo]);
  };
  const double m = static_cast<double>(values.size() + 1);
  q.q1 = at(m * 0.25);
  q.median = at(m * 0.50);
  q.q3 = at(m * 0.75);
  q.min = values.front();
  q.max = values.back();
  return q;
}

namespace {

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                  &regs[i * 4 + 2], &regs[i * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    if (first != std::string::npos) return s.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string Fingerprint::json() const {
  return "{\"cpu_model\": \"" + json_escape(cpu_model) +
         "\", \"nproc\": " + std::to_string(nproc) + ", \"compiler\": \"" +
         json_escape(compiler) + "\", \"build_type\": \"" +
         json_escape(build_type) + "\", \"release\": " +
         (release() ? "true" : "false") +
         ", \"l3_obs\": " + (obs_enabled ? "true" : "false") +
         ", \"width\": " + std::to_string(width) + "}";
}

Fingerprint machine_fingerprint() {
  Fingerprint f;
  f.cpu_model = cpu_brand();
  f.nproc = std::max(1u, std::thread::hardware_concurrency());
  f.compiler = PERFBENCH_COMPILER;
  f.build_type = PERFBENCH_BUILD_TYPE;
  f.obs_enabled = L3_OBS_ENABLED != 0;
  return f;
}

std::size_t parallel_width() {
  return std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace perfbench
