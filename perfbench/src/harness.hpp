#pragma once

// Shared pieces of the end-to-end benchmark: run options, the fixed thread
// budget, the line protocol read by run.py, the in-memory span recorder of
// traced runs, and small statistics helpers.
//
// Line protocol (stdout, one record per line, flushed as written):
//   SETUP <seconds>                 one complete set-up (build + prepare)
//   PLAN <operations> <per round>   operations the timed phase will attempt,
//                                   in whole rounds of <per round>
//   OP <index> <ok|fail> <latency_s> <t_s>
//                                   one timed operation; t_s is the time
//                                   since the timed phase began
//   LAYER <name> <value>            one per-layer metric (traced runs)
//   CHECK <name> <ok|bad> <detail>  correctness and self-test outcomes
//   FAILED <name> <detail>          why an operation failed
// run.py turns these into the final JSON record, so a run that dies mid-way
// still reports what it attempted.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "gpu/runtime.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span dump path of traced runs ("" = none)
};

// The thread budget. Every thread that can run benchmark work is fixed
// here, and each workload's sum stays at 4 = nproc of the reference host:
//   transient-gpu-*: 2 OpenMP threads (the main thread + 1) and
//                    2 virtual-device workers;
//   transient-cpu-2d: 2 OpenMP threads, no device (the host team of the
//                    GPU transients; a team of 4 left no core for anything
//                    else and made the run-to-run spread three times wider);
//   service-mix:     1 client thread (main), 1 service worker with an
//                    OpenMP team of 1, 2 shards with 1 device worker each,
//                    all on one CPU (pin_to_one_cpu()).
// main() puts the OpenMP team into the environment together with
// OMP_WAIT_POLICY=PASSIVE (idle OpenMP threads sleep instead of spinning
// beside the device workers), see ensure_omp_environment().
inline constexpr int kThreadBudget = 4;
inline constexpr int kGpuOmpThreads = 2;
inline constexpr int kGpuDeviceWorkers = 2;
inline constexpr int kCpuOmpThreads = 2;
inline constexpr int kServiceOmpThreads = 1;
inline constexpr int kServiceWorkers = 1;
inline constexpr int kServiceShards = 2;
inline constexpr int kServiceDeviceWorkersPerShard = 1;
static_assert(kGpuOmpThreads + kGpuDeviceWorkers <= kThreadBudget);
static_assert(kCpuOmpThreads <= kThreadBudget);
static_assert(1 + kServiceWorkers * kServiceOmpThreads +
                  kServiceShards * kServiceDeviceWorkersPerShard <=
              kThreadBudget);

/// Pins the calling thread, and every thread it starts afterwards, to the
/// first CPU it may run on; returns false if that fails. service-mix serves
/// one wave at a time (one service worker, OpenMP team of 1), so its
/// threads only hand work to one another. On one CPU each handoff is a
/// local context switch instead of the wake-up of another virtual CPU,
/// whose delay follows the load of the host: over five 30 s runs in a busy
/// period, the spread of latency_p50_s fell from 23% to 6-8%.
inline bool pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return false;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0;
  }
  return false;
}

/// The OpenMP team of a workload.
inline int omp_team(const std::string& workload) {
  if (workload == "service-mix") return kServiceOmpThreads;
  return workload == "transient-cpu-2d" ? kCpuOmpThreads : kGpuOmpThreads;
}

/// The virtual device every GPU workload runs on: an explicit config, so
/// FETI_VGPU_* in the environment cannot change a workload. The modeled
/// 4 µs launch latency is kept, so launch batching still has something to
/// move.
inline feti::gpu::DeviceConfig device_config(int worker_threads) {
  feti::gpu::DeviceConfig cfg;
  cfg.worker_threads = worker_threads;
  cfg.launch_latency_us = 4.0;
  cfg.memory_bytes = 2048ull << 20;
  cfg.temp_pool_fraction = 0.5;
  return cfg;
}

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of the whole process so far.
inline double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// -- line protocol ----------------------------------------------------------

inline void emit_setup(double seconds) {
  std::printf("SETUP %.9f\n", seconds);
  std::fflush(stdout);
}

inline void emit_plan(long operations, long per_round) {
  std::printf("PLAN %ld %ld\n", operations, per_round);
  std::fflush(stdout);
}

inline void emit_op(long index, bool ok, double latency_s, double t_s) {
  std::printf("OP %ld %s %.9f %.6f\n", index, ok ? "ok" : "fail", latency_s,
              t_s);
  std::fflush(stdout);
}

inline void emit_layer(const char* name, double value) {
  std::printf("LAYER %s %.9g\n", name, value);
}

inline void emit_check(const std::string& name, bool ok,
                       const std::string& detail) {
  std::printf("CHECK %s %s %s\n", name.c_str(), ok ? "ok" : "bad",
              detail.c_str());
  std::fflush(stdout);
}

inline void emit_failed(const std::string& name, bool converged,
                        int iterations, bool finite) {
  std::printf("FAILED %s converged=%d iterations=%d finite=%d\n", name.c_str(),
              converged ? 1 : 0, iterations, finite ? 1 : 0);
  std::fflush(stdout);
}

// -- spans --------------------------------------------------------------------

/// In-memory span recorder of traced runs: spans are appended while the run
/// goes and written out once when it ends. Each span names the operation
/// (step or job) it belongs to and the span that caused it.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    long op = -1;      ///< step/job index, -1 for set-up
    int parent = -1;   ///< index of the causing span, -1 for a root
    double start_s = 0.0;
    double end_s = 0.0;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span and returns its handle (-1 when tracing is off).
  int open(std::string name, long op, int parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), op, parent, seconds_since(t0_), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int handle) {
    if (handle >= 0) spans_[static_cast<std::size_t>(handle)].end_s =
        seconds_since(t0_);
  }
  /// Records an already measured interval ending now.
  void record(std::string name, long op, double duration_s, int parent = -1) {
    if (!enabled_) return;
    const double end = seconds_since(t0_);
    spans_.push_back({std::move(name), op, parent, end - duration_s, end});
  }

  /// Writes every span as one JSON array; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span scope.
class SpanScope {
 public:
  SpanScope(SpanRecorder& rec, std::string name, long op, int parent = -1)
      : rec_(rec), handle_(rec.open(std::move(name), op, parent)) {}
  ~SpanScope() { rec_.close(handle_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] int handle() const { return handle_; }

 private:
  SpanRecorder& rec_;
  int handle_;
};

// -- workloads ----------------------------------------------------------------

/// Runs the named transient workload; returns the process exit code.
int run_transient(const RunOptions& opt);
/// Runs the service-mix workload; returns the process exit code.
int run_service_mix(const RunOptions& opt);

}  // namespace perfbench
