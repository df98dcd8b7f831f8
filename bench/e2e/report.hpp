#pragma once

#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file report.hpp
/// bench_e2e's result schema: the metric tables, sample statistics, one
/// workload's result record, the host block, and the JSON spelling of all
/// of them.  Kept apart from the workloads so the schema reads in one
/// place.

namespace parbcc::e2e {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload reports every one of them, from the
/// untraced passes.  A run is a sequence of rounds that each take one
/// value of every metric (a latency percentile over that round's
/// requests, a time for that round's solve), and the metric is the median
/// of the round values: a burst of load from elsewhere on the host that
/// spans less than half the run cannot move it.  Query latency is gated at
/// its median: an open loop's tail counts every batch queued behind a few
/// milliseconds of CPU the hypervisor gave to another guest, so on a
/// shared host its p90 and p99 measure the neighbours (both are kept as
/// phases).  README.md gives the meaning of each on the static and the
/// serving workloads; BENCHMARK.json carries their bounds (the smoke test
/// checks that names and units match).
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"time_to_labels_s", "s"},
    {"solve_s", "s"},          {"arena_peak_mib", "MiB"},
    {"snapshot_mib", "MiB"},   {"query_qps", "1/s"},
    {"query_p50_us", "us"},    {"visible_p50_ms", "ms"},
};

/// Per-layer metrics, from the traced pass.  Layers are named after the
/// src/ modules; a metric a workload does not exercise reads 0.
inline constexpr MetricDef kPerLayer[] = {
    {"graph.load_s", "s"},
    {"graph.parse_mb_per_s", "MB/s"},
    {"graph.prepare_s", "s"},
    {"core.dispatch_s", "s"},
    {"core.step.spanning_tree_s", "s"},
    {"core.step.euler_tour_s", "s"},
    {"core.step.root_tree_s", "s"},
    {"core.step.low_high_s", "s"},
    {"core.step.label_edge_s", "s"},
    {"core.step.connected_components_s", "s"},
    {"core.step.filtering_s", "s"},
    {"core.step.unattributed_s", "s"},
    {"spanning.bfs_rounds", "count"},
    {"spanning.bfs_inspected_edges", "count"},
    {"connectivity.sv_rounds", "count"},
    {"util.sched_steals", "count"},
    {"core.arena_peak_mib", "MiB"},
    {"core.arena_reuse_hits", "count"},
    {"core.dynamic.init_s", "s"},
    {"core.dynamic.apply_s", "s"},
    {"core.dynamic.region_edges", "count"},
    {"core.dynamic.fallback_frac", "ratio"},
    {"server.snapshot_build_s", "s"},
    {"server.snapshot_mib", "MiB"},
    {"server.eval_ns_per_query", "ns"},
    {"server.rtt_overhead_us", "us"},
    {"server.error_replies", "count"},
    {"loadgen.late_p99_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

/// Linear-interpolated quantile q in [0, 1] of `xs` (0 when empty).
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

struct Value {
  double value = 0;
  std::size_t samples = 0;
};

/// Everything one workload reports.  End-to-end metrics, phase seconds and
/// counters live in separate fields; `layers` and `rollup` are filled by
/// the traced pass only.
struct Result {
  std::string name;
  std::string family;
  std::string format;
  std::string engine;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t working_set_bytes = 0;
  std::map<std::string, Value> metrics;
  std::map<std::string, Value> layers;
  std::map<std::string, double> phases;
  std::map<std::string, double> counters;
  std::vector<std::pair<std::string, double>> rollup;
  double rollup_wall_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  /// Count one operation or oracle check; `ok == false` is a failure.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }

  /// Count `ops` operations of which `fails` failed.
  void count(std::uint64_t ops, std::uint64_t fails, const std::string& what) {
    attempted += ops;
    failed += fails;
    if (fails > 0 && failures.size() < 20) {
      failures.push_back(what + " (" + std::to_string(fails) + " failed)");
    }
  }

  /// Metric = median of `samples` times `scale`.
  void metric(const char* key, const std::vector<double>& samples,
              double scale = 1) {
    metrics[key] = {median(samples) * scale, samples.size()};
  }
  void metric(const char* key, double value, std::size_t samples) {
    metrics[key] = {value, samples};
  }
  void layer(const char* key, double value) { layers[key] = {value, 1}; }
};

struct Host {
  unsigned nproc = 0;
  std::string cpu_model = "unknown";
  std::uint64_t l3_bytes = 0;
  std::string git_sha = "unknown";
  bool git_dirty = false;
};

inline std::string trim(std::string s) {
  const auto blank = [](char c) { return c == ' ' || c == '\n' || c == '\t'; };
  while (!s.empty() && blank(s.back())) s.pop_back();
  std::size_t i = 0;
  while (i < s.size() && blank(s[i])) ++i;
  return s.substr(i);
}

inline std::string command_output(const char* cmd) {
  std::string out;
  if (FILE* p = popen(cmd, "r")) {
    char buf[256];
    while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
    pclose(p);
  }
  return trim(out);
}

/// CPU facts come from the cpuid instruction and sysconf, so the probe
/// reads no file; git is asked only inside a git checkout.
inline Host probe_host() {
  Host h;
  h.nproc = static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  h.l3_bytes = l3 > 0 ? static_cast<std::uint64_t>(l3) : 0;
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned i = 0; i < 3; ++i) {
      unsigned regs[4] = {};
      __get_cpuid(0x80000002u + i, &regs[0], &regs[1], &regs[2], &regs[3]);
      std::memcpy(brand + 16 * i, regs, sizeof regs);
    }
    h.cpu_model = trim(brand);
  }
#endif
  if (std::filesystem::exists(".git")) {
    const std::string sha = command_output("git rev-parse HEAD 2>/dev/null");
    if (!sha.empty()) h.git_sha = sha;
    h.git_dirty = !command_output(
                       "git status --porcelain --untracked-files=no "
                       "2>/dev/null")
                       .empty();
  }
  return h;
}

// ---- JSON spelling ----

inline std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string jstr(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

using Fields = std::vector<std::pair<std::string, std::string>>;

inline std::string jobj(const Fields& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += jstr(fields[i].first) + ": " + fields[i].second;
  }
  return out + "}";
}

/// "name": {"value": v, "unit": u[, "samples": k]} fields in table order.
template <std::size_t N>
Fields metric_fields(const MetricDef (&table)[N],
                     const std::map<std::string, Value>& values,
                     bool with_samples, const std::string& prefix = "") {
  Fields fields;
  for (const MetricDef& d : table) {
    const auto it = values.find(d.name);
    if (it == values.end()) continue;
    Fields v = {{"value", jnum(it->second.value)}, {"unit", jstr(d.unit)}};
    if (with_samples) v.push_back({"samples", std::to_string(it->second.samples)});
    fields.push_back({prefix + d.name, jobj(v)});
  }
  return fields;
}

inline std::string doubles_json(const std::map<std::string, double>& m) {
  Fields fields;
  for (const auto& [k, v] : m) fields.push_back({k, jnum(v)});
  return jobj(fields);
}

inline std::string result_json(const Result& r, std::uint64_t l3_bytes) {
  std::string list = "[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    list += (i > 0 ? ", " : "") + jstr(r.failures[i]);
  }
  list += "]";
  Fields fields = {
      {"name", jstr(r.name)},
      {"input",
       jobj({{"family", jstr(r.family)},
             {"format", jstr(r.format)},
             {"n", std::to_string(r.n)},
             {"m", std::to_string(r.m)},
             {"file_bytes", std::to_string(r.file_bytes)},
             {"working_set_bytes", std::to_string(r.working_set_bytes)},
             {"working_set_over_l3",
              jnum(l3_bytes > 0 ? static_cast<double>(r.working_set_bytes) /
                                      static_cast<double>(l3_bytes)
                                : 0)},
             {"engine", jstr(r.engine)}})},
      {"correct", r.failed == 0 ? "true" : "false"},
      {"attempted", std::to_string(r.attempted)},
      {"failed", std::to_string(r.failed)},
      {"failed_frac",
       jnum(r.attempted > 0 ? static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted)
                            : 0)},
      {"failures", list},
      {"metrics", jobj(metric_fields(kEndToEnd, r.metrics, true))},
      {"phases", doubles_json(r.phases)},
      {"counters", doubles_json(r.counters)},
  };
  if (!r.layers.empty()) {
    std::map<std::string, double> rollup(r.rollup.begin(), r.rollup.end());
    double sum = 0;
    for (const auto& [layer, s] : r.rollup) sum += s;
    fields.push_back({"layers", jobj(metric_fields(kPerLayer, r.layers, false))});
    fields.push_back(
        {"rollup", jobj({{"wall_s", jnum(r.rollup_wall_s)},
                         {"self_s", doubles_json(rollup)},
                         {"balance",
                          jnum(r.rollup_wall_s > 0 ? sum / r.rollup_wall_s - 1
                                                   : 0)}})});
  }
  return jobj(fields);
}

}  // namespace parbcc::e2e
