#pragma once

// Virtual GPU runtime — the CUDA substitute used by this reproduction.
//
// No CUDA hardware is available in this environment, so this module
// reproduces the *execution model* the paper's implementation relies on
// (Section IV): asynchronous kernel submission into multiple in-order
// streams, cross-stream concurrency on a worker pool, events, asynchronous
// H2D/D2H copies, per-operation launch latency (the overhead the paper
// blames for small-subdomain behaviour), a bounded device memory with
// persistent allocations, and a blocking temporary-memory pool allocator
// (Section IV-A). Kernels execute on host threads; all relative effects in
// the benchmarks come from real algorithmic differences, not faked timings.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "util/thread_pool.hpp"

namespace feti::gpu {

/// Process-wide PCIe traffic instrumentation. Every Stream::memcpy_h2d /
/// memcpy_d2h counts its bytes here at submission time — the single choke
/// point all upload helpers (gpu/data.cpp), the dual-vector staging paths,
/// the preconditioner staging, and the sharded operators' per-shard devices
/// funnel through — so a transfer-count gate sees the whole process without
/// per-call-site bookkeeping. Counters accumulate forever; callers take
/// snapshot() deltas (concurrent solves on other threads pollute a delta,
/// which is why the benches/tests that gate on it run single-solver).
struct TransferCounters {
  std::atomic<std::uint64_t> h2d_bytes{0};
  std::atomic<std::uint64_t> d2h_bytes{0};
  std::atomic<std::uint64_t> h2d_calls{0};
  std::atomic<std::uint64_t> d2h_calls{0};

  /// Consistent-enough copy for before/after deltas.
  struct Snapshot {
    std::uint64_t h2d_bytes = 0;
    std::uint64_t d2h_bytes = 0;
    std::uint64_t h2d_calls = 0;
    std::uint64_t d2h_calls = 0;

    Snapshot operator-(const Snapshot& o) const {
      return {h2d_bytes - o.h2d_bytes, d2h_bytes - o.d2h_bytes,
              h2d_calls - o.h2d_calls, d2h_calls - o.d2h_calls};
    }
  };

  [[nodiscard]] Snapshot snapshot() const {
    return {h2d_bytes.load(std::memory_order_relaxed),
            d2h_bytes.load(std::memory_order_relaxed),
            h2d_calls.load(std::memory_order_relaxed),
            d2h_calls.load(std::memory_order_relaxed)};
  }

  void record_h2d(std::size_t bytes) {
    h2d_bytes.fetch_add(bytes, std::memory_order_relaxed);
    h2d_calls.fetch_add(1, std::memory_order_relaxed);
  }
  void record_d2h(std::size_t bytes) {
    d2h_bytes.fetch_add(bytes, std::memory_order_relaxed);
    d2h_calls.fetch_add(1, std::memory_order_relaxed);
  }

  /// The process-wide instance (all virtual devices share it, matching the
  /// single physical PCIe link the paper's measurements go through).
  static TransferCounters& global();
};

struct DeviceConfig {
  /// Worker threads emulating the device's execution resources.
  int worker_threads = 0;  ///< 0 = hardware concurrency
  /// Submission overhead per operation in microseconds (kernel launch
  /// latency model). The paper's small-subdomain overhead effects hinge on
  /// this being non-zero.
  double launch_latency_us = 4.0;
  /// Device memory capacity in bytes (A100: 40 GB; scaled default here).
  std::size_t memory_bytes = 2048ull << 20;
  /// Fraction of the capacity reserved for the temporary pool when it is
  /// initialized lazily via ensure_temp_pool() (long-running processes that
  /// create several solver instances share one device, so "all remaining
  /// memory" is only meaningful for single-solver runs).
  double temp_pool_fraction = 0.5;

  /// Reads FETI_VGPU_WORKERS / FETI_VGPU_LATENCY_US / FETI_VGPU_MEM_MB.
  static DeviceConfig from_env();
};

class Device;

/// Blocking pool allocator for temporary device buffers. First-fit
/// free-list; when the pool cannot satisfy a request, the calling thread
/// blocks until other threads release memory (paper Section IV-A).
class TempAllocator {
 public:
  TempAllocator() = default;

  /// Assigns the pool memory (called once by Device::init_temp_pool).
  void init(char* base, std::size_t bytes);

  /// Blocking allocation; throws if `bytes` exceeds the whole pool.
  void* alloc(std::size_t bytes);
  /// Throws std::invalid_argument for pointers outside the pool and for
  /// double frees (offsets that are not a live allocation).
  void free(void* p);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t in_use() const;
  /// Number of times an allocation had to wait (introspection/ablation).
  [[nodiscard]] long contention_count() const;

 private:
  bool try_alloc_locked(std::size_t bytes, std::size_t& offset);

  char* base_ = nullptr;
  std::size_t capacity_ = 0;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::size_t, std::size_t> free_;  ///< offset → size, coalesced
  std::map<std::size_t, std::size_t> used_;  ///< offset → size
  long contention_ = 0;
};

class Event;

/// In-order command stream. Cheap handle (shared state).
class Stream {
 public:
  Stream() = default;

  /// Submits an operation; returns immediately. Operations of one stream
  /// run strictly in order; different streams run concurrently.
  void submit(std::function<void()> op);

  /// Asynchronous copies (host<->device; both are host memory here, but the
  /// copy still runs as a stream-ordered operation).
  void memcpy_h2d(void* dst, const void* src, std::size_t bytes);
  void memcpy_d2h(void* dst, const void* src, std::size_t bytes);

  /// Blocks the calling (host) thread until the stream drains.
  void synchronize();

  /// Records an event after all currently submitted work.
  Event record();
  /// Makes this stream wait for `e` before running later submissions.
  void wait(const Event& e);

  [[nodiscard]] bool valid() const { return impl_ != nullptr; }

 private:
  friend class Device;
  struct Impl;
  explicit Stream(std::shared_ptr<Impl> impl) : impl_(std::move(impl)) {}
  std::shared_ptr<Impl> impl_;
};

/// Completion marker usable across streams.
class Event {
 public:
  Event();
  void wait() const;
  [[nodiscard]] bool query() const;

 private:
  friend class Stream;
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// The virtual device: worker pool + memory.
class Device {
 public:
  explicit Device(DeviceConfig cfg = DeviceConfig::from_env());
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const DeviceConfig& config() const { return cfg_; }

  Stream create_stream();
  /// Blocks until every stream created from this device drains.
  void synchronize();

  /// Persistent device allocation ("cudaMalloc"); throws std::bad_alloc
  /// when the device memory capacity is exceeded.
  void* alloc(std::size_t bytes);
  /// Throws std::invalid_argument when `p` is not a live allocation of
  /// this device (double free or foreign pointer).
  void free(void* p);
  template <typename T>
  T* alloc_n(std::size_t count) {
    return static_cast<T*>(alloc(count * sizeof(T)));
  }

  /// Dedicates all remaining device memory (minus `reserve`) to the
  /// temporary pool allocator. Call after persistent allocations are done
  /// (preparation phase).
  void init_temp_pool(std::size_t reserve = 0);
  /// Lazy variant: if the pool does not exist yet, reserves
  /// temp_pool_fraction of the capacity for it. Safe to call repeatedly.
  void ensure_temp_pool();
  [[nodiscard]] TempAllocator& temp();

  [[nodiscard]] std::size_t memory_used() const;
  [[nodiscard]] std::size_t memory_capacity() const {
    return cfg_.memory_bytes;
  }

  // Internal plumbing used by Stream (public because Stream::Impl lives in
  // the implementation file).
  void pool_submit(std::function<void()> task);
  void launch_latency() const;

 private:

  DeviceConfig cfg_;
  std::unique_ptr<ThreadPool> pool_;
  mutable std::mutex mem_mutex_;
  std::size_t mem_used_ = 0;
  std::map<void*, std::size_t> allocations_;
  std::unique_ptr<char[]> temp_storage_;
  TempAllocator temp_;
  bool temp_ready_ = false;
  std::mutex streams_mutex_;
  std::vector<std::weak_ptr<Stream::Impl>> streams_;
};

}  // namespace feti::gpu
