#pragma once

// String-keyed registry of dual-operator implementations.
//
// Each implementation family registers one factory per Table-III key
// together with its axis metadata (see register_cpu_dual_operators /
// register_gpu_dual_operators in dualop_cpu.cpp / dualop_gpu.cpp). All
// construction and every capability query (uses_gpu, is_explicit,
// availability) is answered from this metadata, so adding a backend or a
// whole new family is one registration call — no switch to extend, no call
// site to touch.
//
// The key grammar (`<representation> <backend-or-api>[ xN]`) and the
// lifecycle contract every registered operator must honor —
// prepare() once per pattern, update_values() per step with dirty-subdomain
// tracking, apply()/apply(X, Y, nrhs) per iteration — are documented in
// docs/ARCHITECTURE.md. In short, a factory must return an operator that:
//  * is constructed cheaply (no factorization, no device allocation; those
//    belong to prepare());
//  * refreshes only the subdomains the problem reports dirty in
//    update_values() (use DualOperator::begin_update/end_update, which also
//    maintain cache_stats());
//  * serves batched applies without degrading to a loop of single applies
//    (or accepts that loop_fallback_count() exposes the degradation).
// Counters (cache_stats(), loop_fallback_count()) accumulate from operator
// construction and never reset.

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"

namespace feti::decomp {
struct FetiProblem;
}
namespace feti::gpu {
class ExecutionContext;
}

namespace feti::core {

class DualOperator;

/// Metadata registered alongside each factory.
struct DualOperatorInfo {
  std::string key;      ///< Table-III name, e.g. "expl legacy"
  ApproachAxes axes;    ///< the axis tuple the implementation realizes
  std::string summary;  ///< one-line description for listings
  [[nodiscard]] bool requires_device() const {
    return axes.device != ExecDevice::Cpu;
  }
};

/// Factories receive the execution resources explicitly: the context is
/// required for GPU-backed implementations and ignored by CPU ones.
using DualOperatorFactory = std::function<std::unique_ptr<DualOperator>(
    const decomp::FetiProblem&, const DualOpConfig&, gpu::ExecutionContext*)>;

class DualOperatorRegistry {
 public:
  /// The process-wide registry, with the built-in families registered on
  /// first use.
  static DualOperatorRegistry& instance();

  /// Registers a factory under info.key. Throws std::invalid_argument on a
  /// duplicate key or an invalid axis tuple.
  void add(DualOperatorInfo info, DualOperatorFactory factory);

  [[nodiscard]] bool contains(std::string_view key) const;
  /// Metadata lookup (copy — the registry may grow concurrently); throws
  /// std::invalid_argument for unknown keys.
  [[nodiscard]] DualOperatorInfo info(std::string_view key) const;
  /// All registered keys, sorted.
  [[nodiscard]] std::vector<std::string> keys() const;
  [[nodiscard]] std::size_t size() const;

  // -- capability queries (metadata-derived) --

  [[nodiscard]] bool uses_gpu(std::string_view key) const;
  [[nodiscard]] bool is_explicit(std::string_view key) const;
  /// Whether the implementation can be constructed in this process given
  /// the (possibly null) execution context.
  [[nodiscard]] bool available(std::string_view key,
                               const gpu::ExecutionContext* context) const;

  /// Constructs the implementation registered under `key`. Throws
  /// std::invalid_argument for unknown keys and when the implementation
  /// requires an execution context but none is supplied. The returned
  /// operator is unprepared: call prepare() once, then update_values()
  /// before the first apply()/kplus_solve()/compute_d().
  [[nodiscard]] std::unique_ptr<DualOperator> create(
      std::string_view key, const decomp::FetiProblem& problem,
      const DualOpConfig& config,
      gpu::ExecutionContext* context = nullptr) const;

 private:
  struct Entry {
    DualOperatorInfo info;
    DualOperatorFactory factory;
  };
  /// Requires mutex_ held.
  const Entry* find_locked(std::string_view key) const;
  /// Copies the entry out under mutex_; throws for unknown keys.
  Entry at(std::string_view key) const;

  /// add() is a public extension point, so lookups and registrations may
  /// race; entries_ is guarded throughout.
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

}  // namespace feti::core
