#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/bcc.hpp"
#include "graph/generators.hpp"
#include "util/trace.hpp"
#include "util/types.hpp"

/// \file bench_common.hpp
/// Shared plumbing for the experiment drivers: scale selection, the
/// paper's workload parameters, and machine-readable output
/// (`--json <path>` writes one record per measured configuration so CI
/// and the experiment log can consume runs without scraping tables).
///
/// The paper's instances are random graphs with n = 1M vertices and
/// m in {4n, 10n, 20n = n log n} edges on a 12-processor Sun E4500.
/// Full scale takes minutes per algorithm on one core, so the benches
/// default to n = 250k (same density sweep, same shapes) and honour
///   PARBCC_N        vertex count    (set 1000000 for paper scale)
///   PARBCC_THREADS  largest SPMD width in the sweeps (default 12)
///   PARBCC_SEED     workload seed
///   PARBCC_REPS     repetitions per configuration (default 2); the
///                   tables report the min, and the median when
///                   reps >= 3 (min == median at 2 reps by convention)

namespace parbcc::bench {

/// Parse `raw` as a base-10 integer, rejecting non-numeric text,
/// trailing junk and out-of-range magnitudes with a diagnostic naming
/// the variable — a silently-misread PARBCC_N turns a paper-scale run
/// into a default-scale one, which is worse than failing loudly.
[[noreturn]] inline void env_fail(const char* var, const char* raw,
                                  const char* expected) {
  std::fprintf(stderr, "parbcc bench: %s=\"%s\" is invalid (expected %s)\n",
               var, raw, expected);
  std::exit(2);
}

inline long long parse_env_int(const char* var, const char* raw,
                               long long lo, long long hi,
                               const char* expected) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0' || errno == ERANGE || value < lo ||
      value > hi) {
    env_fail(var, raw, expected);
  }
  return value;
}

inline vid env_n(vid fallback = 250000) {
  if (const char* s = std::getenv("PARBCC_N")) {
    return static_cast<vid>(parse_env_int(
        "PARBCC_N", s, 1, 0xFFFFFFFFll, "a positive vertex count"));
  }
  return fallback;
}

inline int env_threads(int fallback = 12) {
  if (const char* s = std::getenv("PARBCC_THREADS")) {
    return static_cast<int>(parse_env_int("PARBCC_THREADS", s, 1, 4096,
                                          "a positive thread count"));
  }
  return fallback;
}

inline std::uint64_t env_seed(std::uint64_t fallback = 20050404) {
  if (const char* s = std::getenv("PARBCC_SEED")) {
    return static_cast<std::uint64_t>(
        parse_env_int("PARBCC_SEED", s, 0,
                      std::numeric_limits<long long>::max(),
                      "a non-negative seed"));
  }
  return fallback;
}

inline int env_reps(int fallback = 2) {
  if (const char* s = std::getenv("PARBCC_REPS")) {
    return static_cast<int>(parse_env_int("PARBCC_REPS", s, 1, 1000000,
                                          "a positive repetition count"));
  }
  return fallback;
}

/// Min and median of the repetitions of one configuration.  The min is
/// the headline number (least-perturbed run, the usual convention for
/// wall-clock microarch benchmarks); the median shows run-to-run noise.
struct RepStats {
  double min = 0;
  double median = 0;
};

inline RepStats rep_stats(std::vector<double> samples) {
  RepStats out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.min = samples.front();
  const std::size_t h = samples.size() / 2;
  out.median = samples.size() % 2 == 1
                   ? samples[h]
                   : 0.5 * (samples[h - 1] + samples[h]);
  return out;
}

/// A cold solve: a fresh context of opt.threads workers, the full bill
/// of a one-shot caller (thread spawn, arena growth, conversion).
inline BccResult solve(const EdgeList& g, const BccOptions& opt) {
  BccContext ctx(opt.threads);
  return biconnected_components(ctx, g, opt);
}

/// The paper's density sweep: multipliers of n, with 20n standing in
/// for n log n at n = 1M.
inline std::vector<eid> density_multipliers() { return {4, 10, 20}; }

/// Thread counts matching Fig. 3's x axis (1..12 processors).
inline std::vector<int> thread_sweep(int max_threads) {
  std::vector<int> out;
  for (const int p : {1, 2, 4, 8, 12}) {
    if (p <= max_threads) out.push_back(p);
  }
  if (out.empty() || out.back() != max_threads) out.push_back(max_threads);
  return out;
}

inline void print_header(const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("==============================================================\n");
}

/// One measured configuration, serialized as a flat JSON object:
/// `{"bench": ..., "n": ..., "m": ..., "p": ..., "algorithm": ...,
///   "phase_times": {...}, "min": ..., "median": ...}` plus any extra
/// numeric fields (round counts, inspection counters, ...).
struct JsonRecord {
  std::string bench;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  int p = 0;
  std::string algorithm;
  std::vector<std::pair<std::string, double>> phase_times;
  double min = 0;
  double median = 0;
  std::vector<std::pair<std::string, double>> extra;
};

/// Collects JsonRecords and writes them as a JSON array on flush (or
/// destruction).  Disabled — every call a no-op — unless the program
/// was invoked with `--json <path>`.
class JsonWriter {
 public:
  JsonWriter() = default;
  JsonWriter(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::string_view(argv[i]) == "--json") path_ = argv[i + 1];
    }
  }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;
  ~JsonWriter() { flush(); }

  bool enabled() const { return !path_.empty(); }

  void add(JsonRecord rec) {
    if (enabled()) records_.push_back(std::move(rec));
  }

  /// Write the array; returns false (and prints to stderr) on I/O
  /// failure.  Idempotent: the writer disables itself after flushing.
  bool flush() {
    if (!enabled()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "!! cannot open %s for writing\n", path_.c_str());
      path_.clear();
      return false;
    }
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const JsonRecord& r = records_[i];
      std::fprintf(f,
                   "  {\"bench\": \"%s\", \"n\": %llu, \"m\": %llu, "
                   "\"p\": %d, \"algorithm\": \"%s\", \"phase_times\": {",
                   r.bench.c_str(), static_cast<unsigned long long>(r.n),
                   static_cast<unsigned long long>(r.m), r.p,
                   r.algorithm.c_str());
      for (std::size_t k = 0; k < r.phase_times.size(); ++k) {
        std::fprintf(f, "%s\"%s\": %.6f", k == 0 ? "" : ", ",
                     r.phase_times[k].first.c_str(), r.phase_times[k].second);
      }
      std::fprintf(f, "}, \"min\": %.6f, \"median\": %.6f", r.min, r.median);
      for (const auto& [key, value] : r.extra) {
        std::fprintf(f, ", \"%s\": %.0f", key.c_str(), value);
      }
      std::fprintf(f, "}%s\n", i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("json: wrote %zu records to %s\n", records_.size(),
                path_.c_str());
    path_.clear();
    return true;
  }

 private:
  std::string path_;
  std::vector<JsonRecord> records_;
};

/// Collects traced runs and writes them as one Chrome
/// `chrome://tracing` file on flush (or destruction).  Disabled —
/// every call a no-op — unless the program was invoked with
/// `--trace-out=<path>` (or the split `--trace-out <path>`).  A
/// malformed flag (missing or empty path) aborts with exit code 2,
/// like a malformed PARBCC_* variable: a silently dropped trace flag
/// would look exactly like a run that produced no artifact.
class TraceOut {
 public:
  TraceOut() = default;
  TraceOut(int argc, char** argv) {
    constexpr std::string_view kFlag = "--trace-out";
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg(argv[i]);
      if (arg == kFlag) {
        if (i + 1 >= argc || argv[i + 1][0] == '\0') {
          std::fprintf(stderr,
                       "parbcc bench: --trace-out requires a path\n");
          std::exit(2);
        }
        path_ = argv[++i];
      } else if (arg.substr(0, kFlag.size()) == kFlag &&
                 arg.size() > kFlag.size() && arg[kFlag.size()] == '=') {
        path_ = std::string(arg.substr(kFlag.size() + 1));
        if (path_.empty()) {
          std::fprintf(stderr,
                       "parbcc bench: --trace-out= requires a path\n");
          std::exit(2);
        }
      }
    }
  }
  TraceOut(const TraceOut&) = delete;
  TraceOut& operator=(const TraceOut&) = delete;
  ~TraceOut() { flush(); }

  bool enabled() const { return !path_.empty(); }

  /// Snapshot `trace`'s full event stream and rollup as one segment
  /// (one process row in the Chrome viewer).
  void add(std::string label, const Trace& trace) {
    if (!enabled()) return;
    TraceSegment seg;
    seg.label = std::move(label);
    seg.events = trace.events();
    seg.report = trace.report();
    segments_.push_back(std::move(seg));
  }

  /// Write the file; idempotent (disables itself after flushing).
  bool flush() {
    if (!enabled()) return true;
    const bool ok = write_chrome_json(path_, segments_);
    if (ok) {
      std::printf("trace: wrote %zu segments to %s\n", segments_.size(),
                  path_.c_str());
    }
    path_.clear();
    return ok;
  }

 private:
  std::string path_;
  std::vector<TraceSegment> segments_;
};

}  // namespace parbcc::bench
