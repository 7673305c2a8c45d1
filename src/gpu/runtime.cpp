#include "gpu/runtime.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>

#include "util/common.hpp"

namespace feti::gpu {

// ---------------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------------

DeviceConfig DeviceConfig::from_env() {
  DeviceConfig cfg;
  if (const char* v = std::getenv("FETI_VGPU_WORKERS"))
    cfg.worker_threads = std::atoi(v);
  if (const char* v = std::getenv("FETI_VGPU_LATENCY_US"))
    cfg.launch_latency_us = std::atof(v);
  if (const char* v = std::getenv("FETI_VGPU_MEM_MB"))
    cfg.memory_bytes = static_cast<std::size_t>(std::atoll(v)) << 20;
  return cfg;
}

// ---------------------------------------------------------------------------
// TempAllocator
// ---------------------------------------------------------------------------

void TempAllocator::init(char* base, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  FETI_ASSERT(used_.empty(), "TempAllocator: re-init while blocks are live");
  base_ = base;
  capacity_ = bytes;
  free_.clear();
  if (bytes > 0) free_.emplace(0, bytes);
}

namespace {
constexpr std::size_t kAlign = 64;
std::size_t round_up(std::size_t v) {
  return (v + kAlign - 1) / kAlign * kAlign;
}
}  // namespace

bool TempAllocator::try_alloc_locked(std::size_t bytes, std::size_t& offset) {
  // First fit by offset.
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->second < bytes) continue;
    offset = it->first;
    const std::size_t rest = it->second - bytes;
    free_.erase(it);
    if (rest > 0) free_.emplace(offset + bytes, rest);
    return true;
  }
  return false;
}

void* TempAllocator::alloc(std::size_t bytes) {
  bytes = round_up(std::max<std::size_t>(bytes, 1));
  std::unique_lock<std::mutex> lock(mutex_);
  check(base_ != nullptr, "TempAllocator: pool not initialized");
  check(bytes <= capacity_,
        "TempAllocator: request exceeds the whole temporary pool");
  std::size_t offset = 0;
  if (!try_alloc_locked(bytes, offset)) {
    contention_ += 1;
    cv_.wait(lock, [&] { return try_alloc_locked(bytes, offset); });
  }
  used_.emplace(offset, bytes);
  return base_ + offset;
}

void TempAllocator::free(void* p) {
  if (p == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  check(base_ != nullptr, "TempAllocator::free: pool not initialized");
  check(p >= base_ && p < base_ + capacity_,
        "TempAllocator::free: pointer does not belong to the temporary "
        "pool (wrong allocator?)");
  std::size_t offset = static_cast<std::size_t>(static_cast<char*>(p) - base_);
  const auto live = used_.find(offset);
  check(live != used_.end(),
        "TempAllocator::free: pointer at pool offset " +
            std::to_string(offset) +
            " is not a live allocation (double free, or not an allocation "
            "start)");
  std::size_t size = live->second;
  used_.erase(live);
  // Coalesce with the free neighbours on either side.
  const auto next = free_.lower_bound(offset);
  if (next != free_.end() && offset + size == next->first) {
    size += next->second;
    free_.erase(next);
  }
  const auto after = free_.lower_bound(offset);
  if (after != free_.begin()) {
    const auto prev = std::prev(after);
    if (prev->first + prev->second == offset) {
      offset = prev->first;
      size += prev->second;
      free_.erase(prev);
    }
  }
  free_.emplace(offset, size);
  cv_.notify_all();
}

std::size_t TempAllocator::in_use() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& [offset, size] : used_) total += size;
  return total;
}

long TempAllocator::contention_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return contention_;
}

// ---------------------------------------------------------------------------
// Stream / Event
// ---------------------------------------------------------------------------

struct Event::Impl {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::vector<std::function<void()>> callbacks;

  void set() {
    std::vector<std::function<void()>> to_run;
    {
      std::lock_guard<std::mutex> lock(mutex);
      done = true;
      to_run.swap(callbacks);
      cv.notify_all();
    }
    for (auto& cb : to_run) cb();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return done; });
  }
  bool query() {
    std::lock_guard<std::mutex> lock(mutex);
    return done;
  }
  /// Runs `cb` when the event fires (immediately if it already did).
  void add_callback(std::function<void()> cb) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (!done) {
        callbacks.push_back(std::move(cb));
        return;
      }
    }
    cb();
  }
};

struct Stream::Impl : std::enable_shared_from_this<Stream::Impl> {
  Device* device = nullptr;
  std::mutex mutex;
  /// A queue entry is either an operation or a gate: the stream stalls at a
  /// gate until its event fires. Gates must not occupy a worker thread
  /// (cross-stream waits would otherwise deadlock a small pool), so the
  /// stream parks itself and is re-armed by an event callback.
  struct Entry {
    std::function<void()> op;
    std::shared_ptr<Event::Impl> gate;
  };
  std::deque<Entry> queue;
  bool running = false;
  std::condition_variable idle_cv;

  void pump() {
    for (;;) {
      std::function<void()> op;
      std::shared_ptr<Event::Impl> park_on;
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (queue.empty()) {
          running = false;
          idle_cv.notify_all();
          return;
        }
        Entry& front = queue.front();
        if (front.gate != nullptr) {
          if (front.gate->query()) {
            queue.pop_front();
            continue;
          }
          // Park: release the worker; the event callback re-arms us.
          park_on = front.gate;
          running = false;
        } else {
          op = std::move(front.op);
          queue.pop_front();
        }
      }
      if (park_on != nullptr) {
        park_on->add_callback([self = shared_from_this()] { self->kick(); });
        return;
      }
      device->launch_latency();
      op();
    }
  }

  void kick() {
    bool start = false;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (!running && !queue.empty()) {
        running = true;
        start = true;
      }
    }
    if (start) {
      device->pool_submit([self = shared_from_this()] { self->pump(); });
    }
  }

  void submit(std::function<void()> op) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      queue.push_back({std::move(op), nullptr});
    }
    kick();
  }

  void submit_gate(std::shared_ptr<Event::Impl> gate) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      queue.push_back({nullptr, std::move(gate)});
    }
    kick();
  }

  void synchronize() {
    std::unique_lock<std::mutex> lock(mutex);
    idle_cv.wait(lock, [&] { return !running && queue.empty(); });
  }
};

Event::Event() : impl_(std::make_shared<Impl>()) {}
void Event::wait() const { impl_->wait(); }
bool Event::query() const { return impl_->query(); }

void Stream::submit(std::function<void()> op) {
  check(impl_ != nullptr, "Stream: invalid handle");
  impl_->submit(std::move(op));
}

TransferCounters& TransferCounters::global() {
  static TransferCounters counters;
  return counters;
}

void Stream::memcpy_h2d(void* dst, const void* src, std::size_t bytes) {
  // Counted at submission time (not execution): deterministic totals for
  // the transfer-count gates even while the stream is still draining.
  TransferCounters::global().record_h2d(bytes);
  submit([dst, src, bytes] { std::memcpy(dst, src, bytes); });
}

void Stream::memcpy_d2h(void* dst, const void* src, std::size_t bytes) {
  TransferCounters::global().record_d2h(bytes);
  submit([dst, src, bytes] { std::memcpy(dst, src, bytes); });
}

void Stream::synchronize() {
  check(impl_ != nullptr, "Stream: invalid handle");
  impl_->synchronize();
}

Event Stream::record() {
  Event e;
  auto impl = e.impl_;
  submit([impl] { impl->set(); });
  return e;
}

void Stream::wait(const Event& e) {
  check(impl_ != nullptr, "Stream: invalid handle");
  impl_->submit_gate(e.impl_);
}

// ---------------------------------------------------------------------------
// Device
// ---------------------------------------------------------------------------

Device::Device(DeviceConfig cfg) : cfg_(cfg) {
  int workers = cfg_.worker_threads;
  if (workers <= 0)
    workers = static_cast<int>(std::thread::hardware_concurrency());
  workers = std::max(workers, 1);
  cfg_.worker_threads = workers;
  pool_ = std::make_unique<ThreadPool>(workers);
}

Device::~Device() { synchronize(); }

void Device::pool_submit(std::function<void()> task) {
  // Futures are intentionally dropped; stream completion is tracked by the
  // stream's own idle condition.
  (void)pool_->submit(std::move(task));
}

void Device::launch_latency() const {
  if (cfg_.launch_latency_us <= 0.0) return;
  const auto until =
      std::chrono::steady_clock::now() +
      std::chrono::nanoseconds(
          static_cast<long>(cfg_.launch_latency_us * 1e3));
  // Spin for microsecond-scale latencies (sleep granularity is too coarse).
  while (std::chrono::steady_clock::now() < until) {
  }
}

Stream Device::create_stream() {
  auto impl = std::make_shared<Stream::Impl>();
  impl->device = this;
  {
    std::lock_guard<std::mutex> lock(streams_mutex_);
    streams_.push_back(impl);
  }
  return Stream(std::move(impl));
}

void Device::synchronize() {
  std::vector<std::shared_ptr<Stream::Impl>> live;
  {
    std::lock_guard<std::mutex> lock(streams_mutex_);
    for (auto it = streams_.begin(); it != streams_.end();) {
      if (auto s = it->lock()) {
        live.push_back(std::move(s));
        ++it;
      } else {
        it = streams_.erase(it);
      }
    }
  }
  for (auto& s : live) s->synchronize();
}

void* Device::alloc(std::size_t bytes) {
  bytes = round_up(std::max<std::size_t>(bytes, 1));
  std::lock_guard<std::mutex> lock(mem_mutex_);
  if (mem_used_ + bytes > cfg_.memory_bytes)
    throw std::bad_alloc();  // the vGPU analogue of cudaErrorMemoryAllocation
  void* p = ::operator new(bytes, std::align_val_t(kAlign));
  mem_used_ += bytes;
  allocations_[p] = bytes;
  return p;
}

void Device::free(void* p) {
  if (p == nullptr) return;
  std::lock_guard<std::mutex> lock(mem_mutex_);
  auto it = allocations_.find(p);
  check(it != allocations_.end(),
        "Device::free: pointer is not a live device allocation (double "
        "free, or memory from another allocator)");
  mem_used_ -= it->second;
  ::operator delete(p, std::align_val_t(kAlign));
  allocations_.erase(it);
}

void Device::init_temp_pool(std::size_t reserve) {
  std::lock_guard<std::mutex> lock(mem_mutex_);
  check(!temp_ready_, "init_temp_pool: already initialized");
  const std::size_t remaining =
      cfg_.memory_bytes > mem_used_ + reserve
          ? cfg_.memory_bytes - mem_used_ - reserve
          : 0;
  check(remaining > 0, "init_temp_pool: no device memory left for the pool");
  temp_storage_ = std::make_unique_for_overwrite<char[]>(remaining);
  temp_.init(temp_storage_.get(), remaining);
  mem_used_ += remaining;
  temp_ready_ = true;
}

void Device::ensure_temp_pool() {
  {
    std::lock_guard<std::mutex> lock(mem_mutex_);
    if (temp_ready_) return;
  }
  const auto pool_bytes = static_cast<std::size_t>(
      static_cast<double>(cfg_.memory_bytes) * cfg_.temp_pool_fraction);
  std::lock_guard<std::mutex> lock(mem_mutex_);
  if (temp_ready_) return;
  check(mem_used_ + pool_bytes <= cfg_.memory_bytes,
        "ensure_temp_pool: persistent allocations already exceed the "
        "non-pool share of device memory");
  temp_storage_ = std::make_unique_for_overwrite<char[]>(pool_bytes);
  temp_.init(temp_storage_.get(), pool_bytes);
  mem_used_ += pool_bytes;
  temp_ready_ = true;
}

TempAllocator& Device::temp() {
  check(temp_ready_, "temp(): init_temp_pool() must be called first");
  return temp_;
}

std::size_t Device::memory_used() const {
  std::lock_guard<std::mutex> lock(mem_mutex_);
  return mem_used_;
}

}  // namespace feti::gpu
