// The transient workloads: a time-stepping heat simulation in which every
// step rescales every subdomain's material and load, so every step pays
// the paper's full FETI preprocessing (numeric factorization + explicit
// assembly) before PCPG.
//
//   transient-gpu-2d  2D heat, 4x4 subdomains of 2401 DOFs, "expl legacy",
//                     "lumped gpu", device-resident PCPG;
//   transient-gpu-3d  3D heat, 3x3x3 subdomains of 216 DOFs, "expl legacy",
//                     "dirichlet stiffness gpu", device-resident PCPG;
//   transient-cpu-2d  the 2D problem with "impl mkl" and "lumped" (the
//                     paper's implicit CPU baseline).
//
// One timed operation is one FetiSolver::solve_step(): update_values →
// compute_d → PCPG → primal gather, timed by the benchmark's own clock
// around the call. Input generation (the rescaling) and the checks run
// outside that timer.

#include <cmath>
#include <memory>
#include <string>

#include "checks.hpp"
#include "core/autotune.hpp"
#include "core/feti_solver.hpp"
#include "fem/assembler.hpp"
#include "harness.hpp"
#include "precond/preconditioner.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using feti::idx;
namespace core = feti::core;
namespace decomp = feti::decomp;
namespace gpu = feti::gpu;
namespace mesh = feti::mesh;

struct TransientSpec {
  const char* name;
  int dim;
  idx cells;   ///< cells per axis of the whole grid
  idx splits;  ///< subdomains per axis
  const char* key;
  const char* precond;
  bool gpu;
};

constexpr TransientSpec kSpecs[] = {
    {"transient-gpu-2d", 2, 192, 4, "expl legacy", "lumped gpu", true},
    {"transient-gpu-3d", 3, 15, 3, "expl legacy", "dirichlet stiffness gpu",
     true},
    {"transient-cpu-2d", 2, 192, 4, "impl mkl", "lumped", false},
};

constexpr double kTolerance = 1e-8;
constexpr int kWarmupSteps = 3;
constexpr int kStepsPerRound = 4;
constexpr int kSetups = 7;
/// Subdomain conductivity factors are drawn log-uniformly from
/// [1/kSpread, kSpread] every step.
constexpr double kSpread = 2.0;

/// One complete set-up: mesh, decomposition, FETI problem, execution
/// context, solver, prepare().
struct Setup {
  mesh::Mesh mesh;
  decomp::FetiProblem problem;
  std::unique_ptr<gpu::ExecutionContext> context;
  std::unique_ptr<core::FetiSolver> solver;
  double build_s = 0.0;
  double prepare_s = 0.0;
};

std::unique_ptr<Setup> make_setup(const TransientSpec& spec,
                                  SpanRecorder& spans) {
  auto s = std::make_unique<Setup>();
  const auto t0 = Clock::now();
  {
    SpanScope span(spans, "build.problem", -1);
    const idx c = spec.cells;
    mesh::Decomposition dec;
    if (spec.dim == 2) {
      s->mesh = mesh::make_grid_2d(c, c, mesh::ElementOrder::Linear);
      dec = mesh::decompose_2d(s->mesh, c, c, spec.splits, spec.splits);
    } else {
      s->mesh = mesh::make_grid_3d(c, c, c, mesh::ElementOrder::Linear);
      dec = mesh::decompose_3d(s->mesh, c, c, c, spec.splits, spec.splits,
                               spec.splits);
    }
    s->problem =
        decomp::build_feti_problem(dec, feti::fem::Physics::HeatTransfer);
  }
  s->build_s = seconds_since(t0);

  const auto t1 = Clock::now();
  {
    SpanScope span(spans, "solver.prepare", -1);
    if (spec.gpu)
      s->context = std::make_unique<gpu::ExecutionContext>(
          device_config(kGpuDeviceWorkers));
    core::FetiSolverOptions o;
    o.dualop = core::recommend_config(spec.key, spec.dim,
                                      s->problem.max_subdomain_dofs());
    o.pcpg.rel_tolerance = kTolerance;
    o.pcpg.max_iterations = 1000;
    o.pcpg.preconditioner = spec.precond;
    o.pcpg.device_state = spec.gpu ? core::PcpgOptions::DeviceState::On
                                   : core::PcpgOptions::DeviceState::Off;
    s->solver = std::make_unique<core::FetiSolver>(s->problem, o,
                                                   s->context.get());
    s->solver->prepare();
  }
  s->prepare_s = seconds_since(t1);
  return s;
}

/// Waits of the context's blocking temporary allocator so far (0 while its
/// pool does not exist yet).
long allocator_waits(gpu::ExecutionContext& context) {
  try {
    return context.workspace().contention_count();
  } catch (const std::exception&) {
    return 0;
  }
}

/// Per-step readings of the public counters, taken around one step.
struct Counters {
  double dual_update = 0.0, dual_apply = 0.0;
  long dual_apply_calls = 0, solve_columns = 0;
  double pre_update = 0.0, pre_apply = 0.0;
  long pre_apply_calls = 0;
  gpu::TransferCounters::Snapshot xfer;
  long temp_waits = 0;
  double cpu_s = 0.0;

  static Counters read(Setup& s) {
    Counters c;
    core::DualOperator& op = s.solver->dual_operator();
    c.dual_update = op.timings().total("update_values");
    const auto apply = op.timings().get("apply");
    c.dual_apply = apply.total;
    c.dual_apply_calls = apply.count;
    c.solve_columns = op.solve_columns();
    if (auto* m = s.solver->preconditioner()) {
      c.pre_update = m->timings().total("update_values");
      const auto a = m->timings().get("apply");
      c.pre_apply = a.total;
      c.pre_apply_calls = a.count;
    }
    c.xfer = gpu::TransferCounters::global().snapshot();
    if (s.context) c.temp_waits = allocator_waits(*s.context);
    c.cpu_s = process_cpu_seconds();
    return c;
  }
};

/// Sums of the per-step deltas over the timed steps of a traced run.
struct LayerTotals {
  long steps = 0;
  double dual_update = 0.0, dual_apply = 0.0, dual_apply_calls = 0.0;
  double refreshed = 0.0, solve_columns = 0.0, apply_bytes = 0.0;
  double pre_update = 0.0, pre_apply = 0.0, pre_apply_calls = 0.0;
  double iterations = 0.0, pcpg_s = 0.0, deflation = 0.0;
  double h2d_bytes = 0.0, d2h_bytes = 0.0, h2d_calls = 0.0, d2h_calls = 0.0;
  double temp_waits = 0.0, cpu_s = 0.0;
  std::vector<double> projector_s;

  void add(const Counters& a, const Counters& b,
           const core::FetiStepResult& r, std::size_t bytes_per_apply) {
    ++steps;
    dual_update += b.dual_update - a.dual_update;
    dual_apply += b.dual_apply - a.dual_apply;
    const long calls = b.dual_apply_calls - a.dual_apply_calls;
    dual_apply_calls += static_cast<double>(calls);
    apply_bytes += static_cast<double>(calls) *
                   static_cast<double>(bytes_per_apply);
    solve_columns += static_cast<double>(b.solve_columns - a.solve_columns);
    refreshed += static_cast<double>(r.refreshed_subdomains);
    pre_update += b.pre_update - a.pre_update;
    pre_apply += b.pre_apply - a.pre_apply;
    pre_apply_calls += static_cast<double>(b.pre_apply_calls -
                                           a.pre_apply_calls);
    iterations += r.pcpg_iterations;
    pcpg_s += r.pcpg_seconds;
    deflation += r.deflation_dim;
    const gpu::TransferCounters::Snapshot x = b.xfer - a.xfer;
    h2d_bytes += static_cast<double>(x.h2d_bytes);
    d2h_bytes += static_cast<double>(x.d2h_bytes);
    h2d_calls += static_cast<double>(x.h2d_calls);
    d2h_calls += static_cast<double>(x.d2h_calls);
    temp_waits += static_cast<double>(b.temp_waits - a.temp_waits);
    cpu_s += b.cpu_s - a.cpu_s;
  }
};

/// Median wall time of a directly timed call.
template <typename F>
double time_call(F&& f, int reps = 5) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

}  // namespace

int run_transient(const RunOptions& opt) {
  const TransientSpec* spec = nullptr;
  for (const auto& s : kSpecs)
    if (opt.workload == s.name) spec = &s;
  if (spec == nullptr) return 2;

  SpanRecorder spans(opt.trace);
  const CheckBounds bounds = CheckBounds::for_tolerance(kTolerance);

  // -- set-up, several times; the last one is kept for the timed steps ----
  std::unique_ptr<Setup> setup;
  std::vector<double> build_s, prepare_s;
  for (int i = 0; i < kSetups; ++i) {
    setup.reset();  // the previous set-up is torn down outside the timer
    const auto t0 = Clock::now();
    setup = make_setup(*spec, spans);
    emit_setup(seconds_since(t0));
    build_s.push_back(setup->build_s);
    prepare_s.push_back(setup->prepare_s);
  }
  Setup& s = *setup;
  decomp::FetiProblem& p = s.problem;
  const GlobalSystemCheck check(p);
  bool correct = true;

  // -- the uniform first step, checked against the monolithic solve ------
  {
    const feti::fem::GlobalSystem global =
        feti::fem::assemble_global(s.mesh, feti::fem::Physics::HeatTransfer);
    const std::vector<double> u_ref = feti::fem::reference_solve(global);
    const core::FetiStepResult r = s.solver->solve_step();
    const CheckResult a = agreement(r.u, u_ref, bounds.agreement);
    std::string detail;
    const bool ok = r.converged && a.ok &&
                    check.solution_ok(p, r.u, bounds, &detail);
    emit_check("first_step.reference_solve", ok,
               "agreement=" + a.describe() + " " + detail);
    correct = correct && ok;
    correct = self_test(p, check, r.u, bounds, "transient") && correct;
  }

  // -- the seeded material/load schedule ----------------------------------
  feti::Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + 17);
  std::vector<double> coeff(p.sub.size(), 1.0);
  auto rescale = [&] {
    for (std::size_t i = 0; i < p.sub.size(); ++i) {
      const double c = std::exp(rng.uniform(-std::log(kSpread),
                                            std::log(kSpread)));
      decomp::scale_subdomain(p, static_cast<idx>(i), c / coeff[i]);
      coeff[i] = c;
    }
  };
  // A step fails when it yields no usable solution (no convergence, or a
  // non-finite u); a usable solution that misses a check is incorrect.
  CheckBounds worst{};
  auto judge = [&](long index, const core::FetiStepResult& r) {
    const bool usable = r.converged && all_finite(r.u);
    if (!usable) {
      emit_failed("step." + std::to_string(index), r.converged,
                  r.pcpg_iterations, all_finite(r.u));
      return false;
    }
    std::string detail;
    if (!check.solution_ok(p, r.u, bounds, &detail, &worst)) {
      emit_check("step." + std::to_string(index), false, detail);
      correct = false;
    }
    return true;
  };

  // -- warm-up, which also sizes the timed phase ---------------------------
  std::vector<double> warm;
  for (int i = 0; i < kWarmupSteps; ++i) {
    const auto t0 = Clock::now();
    rescale();
    judge(-1 - i, s.solver->solve_step());
    warm.push_back(seconds_since(t0));
  }
  const double per_round = kStepsPerRound * median(warm);
  const long rounds = std::max<long>(
      1, std::lround(opt.seconds / std::max(per_round, 1e-6)));
  const long planned = rounds * kStepsPerRound;
  emit_plan(planned, kStepsPerRound);

  // -- timed steps -----------------------------------------------------------
  LayerTotals layers;
  const std::size_t bytes_per_apply =
      s.solver->dual_operator().apply_bytes();
  std::vector<double> dual(static_cast<std::size_t>(p.num_lambdas), 0.0);
  std::vector<double> dual_out(dual.size(), 0.0);
  const auto timed0 = Clock::now();
  for (long i = 0; i < planned; ++i) {
    rescale();
    if (!opt.trace) {
      const auto t0 = Clock::now();
      const core::FetiStepResult r = s.solver->solve_step();
      const double latency = seconds_since(t0);
      emit_op(i, judge(i, r), latency, seconds_since(timed0));
      continue;
    }
    const Counters before = Counters::read(s);
    core::FetiStepResult r;
    double latency = 0.0;
    {
      SpanScope span(spans, "solve_step", i);
      const auto t0 = Clock::now();
      r = s.solver->solve_step();
      latency = seconds_since(t0);
      spans.record("update_values", i, r.preprocess_seconds, span.handle());
      spans.record("pcpg", i, r.pcpg_seconds, span.handle());
    }
    const Counters after = Counters::read(s);
    layers.add(before, after, r, bytes_per_apply);
    // Directly timed calls into the projector and the preconditioner on a
    // dual vector of this step (the operator's own apply is in its
    // timings()).
    s.solver->dual_operator().compute_d(dual.data());
    {
      SpanScope span(spans, "projector.apply", i);
      layers.projector_s.push_back(time_call(
          [&] { s.solver->projector().apply(dual.data(), dual_out.data()); }));
    }
    if (auto* m = s.solver->preconditioner()) {
      SpanScope span(spans, "precond.apply", i);
      m->apply(dual.data(), dual_out.data());
    }
    emit_op(i, judge(i, r), latency, seconds_since(timed0));
  }

  if (opt.trace) {
    const double n = static_cast<double>(std::max<long>(layers.steps, 1));
    emit_layer("build.problem_s", median(build_s));
    emit_layer("solver.prepare_s", median(prepare_s));
    emit_layer("dualop.update_s", layers.dual_update / n);
    emit_layer("dualop.refreshed_subdomains", layers.refreshed / n);
    emit_layer("dualop.solve_columns", layers.solve_columns / n);
    emit_layer("dualop.apply_s", layers.dual_apply / n);
    emit_layer("dualop.apply_calls", layers.dual_apply_calls / n);
    emit_layer("dualop.apply_per_iter_s",
               layers.dual_apply / std::max(layers.iterations, 1.0));
    emit_layer("dualop.apply_bytes", layers.apply_bytes / n);
    emit_layer("dualop.loop_fallbacks",
               static_cast<double>(
                   s.solver->dual_operator().loop_fallback_count() +
                   (s.solver->preconditioner()
                        ? s.solver->preconditioner()->loop_fallback_count()
                        : 0)));
    emit_layer("precond.update_s", layers.pre_update / n);
    emit_layer("precond.apply_s", layers.pre_apply / n);
    emit_layer("precond.apply_calls", layers.pre_apply_calls / n);
    emit_layer("pcpg.iterations", layers.iterations / n);
    emit_layer("pcpg.s", layers.pcpg_s / n);
    emit_layer("pcpg.other_s",
               (layers.pcpg_s - layers.dual_apply - layers.pre_apply) / n);
    emit_layer("projector.apply_s", median(layers.projector_s));
    emit_layer("recycler.deflation_dim", layers.deflation / n);
    emit_layer("recycler.iterations", 0.0);
    emit_layer("recycler.stalled_jobs", 0.0);
    emit_layer("gpu.h2d_bytes", layers.h2d_bytes / n);
    emit_layer("gpu.d2h_bytes", layers.d2h_bytes / n);
    emit_layer("gpu.h2d_calls", layers.h2d_calls / n);
    emit_layer("gpu.d2h_calls", layers.d2h_calls / n);
    emit_layer("gpu.temp_waits", layers.temp_waits / n);
    emit_layer("gpu.device_mem_bytes",
               s.context ? static_cast<double>(
                               s.context->device().memory_used())
                         : 0.0);
    emit_layer("process.cpu_s_per_step", layers.cpu_s / n);
    for (const char* name :
         {"service.queue_p50_s", "service.solve_p50_s",
          "service.wave_size_mean", "service.waves", "service.pool_hit_ratio",
          "service.values_cached_ratio", "service.pool_evictions"})
      emit_layer(name, 0.0);
    std::fflush(stdout);
    if (!opt.trace_out.empty() && !spans.write(opt.trace_out))
      emit_check("trace.write", false, opt.trace_out);
  }
  emit_check("transient.worst", true,
             worst.describe() + " bounds " + bounds.describe());
  emit_check("run", correct, correct ? "all checks passed" : "a check failed");
  return 0;
}

}  // namespace perfbench
