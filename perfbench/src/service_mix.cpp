// The service-mix workload: a closed loop of two tenants over a 2-shard
// SolverService. One client thread drives the tenants in phases: in each
// phase every tenant submits one burst of kBurst jobs and the client waits
// for all of them before the next phase. A round is kPhases phases:
//
//   phase 0      material change: every tenant rescales its subdomains to
//                the next of two seeded material states, then submits a
//                burst (pool hit, numeric refresh);
//   phases 1..   repeats on unchanged values (pool hit, values_cached);
//   last phase   the "gpu-f64" tenant's burst carries one load case with a
//                NaN entry — a fixed position, independent of the seed.
//                Block PCPG's shared Krylov panel spreads it to every
//                sibling in the wave, so the whole burst fails.
//
// Tenants differ in problem size and key family: explicit GPU-applied
// ("expl hybrid", device block engine) and implicit CPU ("impl mkl", host
// block engine). Every job is checked against an "impl mkl" solve of the
// same dual system made before the timed loop (every registry key applies
// the same F, so the solutions must agree); physical jobs also get the
// residual check. An fp32 tenant ("expl hybrid f32") is left out: on some
// seeds most of its jobs stop converging (README, "Known faults", fault 4).
//
// Timed jobs run without Krylov recycling: a recycled wave stalls short of
// convergence on some seeds only (README, "Known faults", fault 3), which
// would make the failed share depend on the seed. The traced run measures
// the recycler on replica solvers instead.

#include <omp.h>

#include <array>
#include <cmath>
#include <future>
#include <memory>
#include <string>

#include "checks.hpp"
#include "core/autotune.hpp"
#include "harness.hpp"
#include "service/solver_service.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using feti::idx;
namespace core = feti::core;
namespace decomp = feti::decomp;
namespace gpu = feti::gpu;
namespace mesh = feti::mesh;
namespace service = feti::service;

struct TenantSpec {
  const char* name;
  idx cells;  ///< cells per axis; 4x4 subdomains
  const char* key;
};

// Tenants submit in this order each phase, so the single service worker
// serves them FIFO and each tenant's latency (its own wave plus the wave
// queued ahead of it) forms a separate band.
const std::array<TenantSpec, 2> kTenants = {{
    {"gpu-f64", 96, "expl hybrid"},
    {"cpu-impl", 80, "impl mkl"},
}};
constexpr std::size_t kPoisonTenant = 0;
constexpr double kTolerance = 1e-8;
const CheckBounds kBounds = CheckBounds::for_tolerance(kTolerance);

constexpr int kBurst = 4;
constexpr int kPhases = 8;
constexpr int kLoadCases = 6;
constexpr int kStates = 2;
constexpr int kSetups = 7;
constexpr idx kSplits = 4;
/// Iteration cap of the recycling replicas (a cold wave takes 30–60).
constexpr int kRecycleMaxIterations = 300;
/// Material states draw subdomain factors log-uniformly from
/// [1/kSpread, kSpread]: enough to force a numeric refresh, narrow enough
/// that the iteration counts do not depend on the seed.
constexpr double kSpread = 1.25;

/// The load case of each slot of a burst: -1 = the physical d of the
/// problem's current f, otherwise an index into the tenant's load cases.
/// Fixed, so every round submits the same operations.
constexpr std::array<std::array<int, kBurst>, kPhases> kBurstSlots = {{
    {-1, 0, 1, 2},
    {3, 4, 5, -1},
    {0, 2, 4, 5},
    {1, 3, -1, 5},
    {2, 0, 3, 4},
    {-1, 1, 4, 0},
    {5, 2, 3, 1},
    {1, 3, 5, 0},
}};
constexpr int kPoisonPhase = kPhases - 1;
constexpr int kPoisonSlot = 1;

struct Tenant {
  const TenantSpec* spec = nullptr;
  decomp::FetiProblem problem;
  std::unique_ptr<GlobalSystemCheck> check;
  /// Per-subdomain conductivity factor of each material state.
  std::array<std::vector<double>, kStates> states;
  std::vector<double> current;  ///< factors applied right now
  int state = -1;               ///< -1 = uniform (as built)
  std::vector<std::vector<double>> load_cases;
  /// ref[state][case + 1]: the "impl mkl" solution of that dual system
  /// (case -1 = the physical d).
  std::array<std::vector<std::vector<double>>, kStates> ref;
  std::size_t bytes_per_apply = 0;  ///< of a replica operator (traced runs)
  CheckBounds worst{};              ///< largest check values seen

  void set_state(int s) {
    for (std::size_t i = 0; i < problem.sub.size(); ++i) {
      const double c = states[static_cast<std::size_t>(s)][i];
      decomp::scale_subdomain(problem, static_cast<idx>(i), c / current[i]);
      current[i] = c;
    }
    state = s;
  }
};

decomp::FetiProblem build_problem(idx cells) {
  const mesh::Mesh m =
      mesh::make_grid_2d(cells, cells, mesh::ElementOrder::Linear);
  const mesh::Decomposition dec =
      mesh::decompose_2d(m, cells, cells, kSplits, kSplits);
  return decomp::build_feti_problem(dec, feti::fem::Physics::HeatTransfer);
}

core::PcpgOptions pcpg_options() {
  core::PcpgOptions o;
  o.rel_tolerance = kTolerance;
  o.max_iterations = 1000;
  o.block.enabled = true;
  o.device_state = core::PcpgOptions::DeviceState::Auto;
  return o;
}

/// A CPU "impl mkl" solver on the tenant's problem: the source of the
/// load-case right-hand sides and of the reference solutions.
std::unique_ptr<core::FetiSolver> reference_solver(const Tenant& t) {
  core::FetiSolverOptions o;
  o.dualop = core::recommend_config("impl mkl", 2,
                                    t.problem.max_subdomain_dofs());
  o.pcpg.rel_tolerance = 1e-10;
  o.pcpg.max_iterations = 2000;
  auto solver = std::make_unique<core::FetiSolver>(t.problem, o, nullptr);
  solver->prepare();
  return solver;
}

/// Seeded inputs of one tenant: two material states and kLoadCases load
/// cases d = a·d(f) + b·d(f'), where f' is a seeded load drawn afresh for
/// each case, so the cases span kLoadCases + 1 directions. Every such d
/// lies in range(B), so each dual system is consistent.
void make_inputs(Tenant& t, feti::Rng& rng) {
  const std::size_t ns = t.problem.sub.size();
  for (auto& st : t.states) {
    st.resize(ns);
    for (double& c : st)
      c = std::exp(rng.uniform(-std::log(kSpread), std::log(kSpread)));
  }
  t.current.assign(ns, 1.0);

  auto solver = reference_solver(t);
  core::DualOperator& op = solver->dual_operator();
  op.update_values();
  const auto n = static_cast<std::size_t>(t.problem.num_lambdas);
  std::vector<double> d_f(n), d_alt(n);
  op.compute_d(d_f.data());
  std::vector<std::vector<double>> f_saved;
  for (auto& s : t.problem.sub) f_saved.push_back(s.sys.f);
  t.load_cases.clear();
  for (int k = 0; k < kLoadCases; ++k) {
    for (auto& s : t.problem.sub)
      for (double& v : s.sys.f) v = rng.uniform(-1.0, 1.0) * 1e-4;
    op.compute_d(d_alt.data());
    const double a = rng.uniform(0.5, 2.0), b = rng.uniform(-1.0, 1.0);
    std::vector<double> d(n);
    for (std::size_t j = 0; j < n; ++j) d[j] = a * d_f[j] + b * d_alt[j];
    t.load_cases.push_back(std::move(d));
  }
  for (std::size_t i = 0; i < ns; ++i) t.problem.sub[i].sys.f = f_saved[i];
}

/// Reference solutions of every (state, case) pair, the physical case
/// first; leaves the tenant in state kStates - 1.
void make_references(Tenant& t) {
  auto solver = reference_solver(t);
  std::vector<std::vector<double>> rhs(1);  // empty = the physical d
  rhs.insert(rhs.end(), t.load_cases.begin(), t.load_cases.end());
  for (int s = 0; s < kStates; ++s) {
    t.set_state(s);
    auto& ref = t.ref[static_cast<std::size_t>(s)];
    ref.clear();
    for (auto& x : solver->solve_step_many(rhs)) ref.push_back(std::move(x.u));
  }
}

service::SolveJob make_job(Tenant& t, std::size_t tenant, int slot_case,
                           bool poison) {
  service::SolveJob job;
  job.problem = &t.problem;
  job.key = t.spec->key;
  job.pcpg = pcpg_options();
  job.tenant = tenant;
  if (slot_case >= 0) {
    job.dual_rhs = t.load_cases[static_cast<std::size_t>(slot_case)];
    if (poison) job.dual_rhs[0] = std::nan("");
  }
  return job;
}

service::ServiceOptions service_options() {
  service::ServiceOptions o;
  o.num_shards = kServiceShards;
  o.workers = kServiceWorkers;
  o.device =
      device_config(kServiceShards * kServiceDeviceWorkersPerShard);
  o.batch_waves = true;
  o.max_wave = 8;
  o.pool_budget_bytes = 0;
  o.autotune_dim = 2;
  return o;
}

struct World {
  std::array<Tenant, kTenants.size()> tenants;
  std::unique_ptr<service::SolverService> svc;
};

/// One job's outcome as the client saw it.
struct Outcome {
  std::size_t tenant = 0;
  int load_case = -1;       ///< -1 = the physical d
  bool has_result = false;  ///< the future delivered a JobResult
  bool failed = false;   ///< no usable result (exception, NaN, no convergence)
  bool correct = true;   ///< a usable result passed its check
  double latency_s = 0.0;
  service::JobResult result;
};

/// Submits one phase (a burst per tenant) and waits for all of it.
std::vector<Outcome> run_phase(World& w, int phase, bool poison,
                               SpanRecorder& spans, long first_op) {
  if (phase == 0)
    for (Tenant& t : w.tenants) t.set_state((t.state + 1) % kStates);
  std::vector<std::future<service::JobResult>> futures;
  std::vector<Clock::time_point> submitted;
  std::vector<Outcome> out;
  for (std::size_t ti = 0; ti < w.tenants.size(); ++ti) {
    std::vector<service::SolveJob> burst;
    for (int j = 0; j < kBurst; ++j) {
      const int lc = kBurstSlots[static_cast<std::size_t>(phase)]
                                [static_cast<std::size_t>(j)];
      const bool bad = poison && ti == kPoisonTenant && phase == kPoisonPhase &&
                       j == kPoisonSlot;
      burst.push_back(make_job(w.tenants[ti], ti, lc, bad));
      out.emplace_back();
      out.back().tenant = ti;
      out.back().load_case = lc;
    }
    const auto t0 = Clock::now();
    for (auto& f : w.svc->submit(std::move(burst))) {
      futures.push_back(std::move(f));
      submitted.push_back(t0);
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    Outcome& o = out[i];
    try {
      o.result = futures[i].get();
      o.has_result = true;
    } catch (const std::exception&) {
      o.failed = true;
    }
    o.latency_s = std::chrono::duration<double>(Clock::now() - submitted[i])
                      .count();
    spans.record("service.submit_to_ready", first_op + static_cast<long>(i),
                 o.latency_s);
  }
  // Checks, after every future of the phase is in.
  for (std::size_t i = 0; i < out.size(); ++i) {
    Outcome& o = out[i];
    if (o.failed) continue;
    Tenant& t = w.tenants[o.tenant];
    if (!o.result.converged || !all_finite(o.result.u)) {
        o.failed = true;
      emit_failed(std::string(t.spec->name) + ".case" +
                      std::to_string(o.load_case),
                  o.result.converged, o.result.pcpg_iterations,
                  all_finite(o.result.u));
      continue;
    }
    const int lc = o.load_case;
    const CheckResult a = agreement(
        o.result.u,
        t.ref[static_cast<std::size_t>(t.state)][static_cast<std::size_t>(lc + 1)],
        kBounds.agreement);
    t.worst.agreement = std::max(t.worst.agreement, a.value);
    o.correct = a.ok;
    std::string detail = "agreement=" + a.describe();
    if (lc < 0) {
      std::string more;
      o.correct = t.check->solution_ok(t.problem, o.result.u, kBounds,
                                       &more, &t.worst) &&
                  o.correct;
      detail += " " + more;
    }
    if (!o.correct)
      emit_check(std::string("job.") + t.spec->name + ".case" +
                     std::to_string(lc),
                 false, detail);
  }
  return out;
}

std::unique_ptr<World> make_world(feti::Rng& rng, bool with_inputs,
                                  std::vector<double>& build_s,
                                  std::vector<double>& start_s,
                                  SpanRecorder& spans) {
  auto w = std::make_unique<World>();
  const auto t0 = Clock::now();
  {
    SpanScope span(spans, "build.problem", -1);
    for (std::size_t i = 0; i < kTenants.size(); ++i) {
      w->tenants[i].spec = &kTenants[i];
      w->tenants[i].problem = build_problem(kTenants[i].cells);
      w->tenants[i].current.assign(w->tenants[i].problem.sub.size(), 1.0);
    }
  }
  const double build = seconds_since(t0);
  const auto t1 = Clock::now();
  {
    // Service creation, then one physical job per tenant: the pool miss
    // builds and prepares each tenant's pooled solver.
    SpanScope span(spans, "solver.prepare", -1);
    w->svc = std::make_unique<service::SolverService>(service_options());
    std::vector<std::future<service::JobResult>> first;
    for (std::size_t i = 0; i < w->tenants.size(); ++i)
      first.push_back(w->svc->submit(make_job(w->tenants[i], i, -1, false)));
    for (auto& f : first) f.get();
  }
  const double start = seconds_since(t1);
  emit_setup(seconds_since(t0));
  build_s.push_back(build);
  start_s.push_back(start);
  if (with_inputs)
    for (Tenant& t : w->tenants) {
      t.check = std::make_unique<GlobalSystemCheck>(t.problem);
      make_inputs(t, rng);
    }
  return w;
}

long total_temp_waits(service::SolverService& svc) {
  long waits = 0;
  for (std::size_t i = 0; i < svc.device_pool().size(); ++i) {
    try {
      waits += svc.device_pool().context(i).workspace().contention_count();
    } catch (const std::exception&) {
    }
  }
  return waits;
}

}  // namespace

int run_service_mix(const RunOptions& opt) {
  // The service worker's OpenMP team comes from OMP_NUM_THREADS (main()
  // sets it); a larger team would break the thread budget. Every thread
  // of the workload starts after the pinning and inherits it.
  const bool pinned = pin_to_one_cpu();
  const bool team_ok = omp_get_max_threads() == kServiceOmpThreads && pinned;
  emit_check("thread_budget", team_ok,
             "OpenMP team " + std::to_string(omp_get_max_threads()) +
                 (pinned ? ", one CPU" : ", pinning failed"));
  SpanRecorder spans(opt.trace);
  feti::Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + 29);

  std::unique_ptr<World> world;
  std::vector<double> build_s, start_s;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    world = make_world(rng, i + 1 == kSetups, build_s, start_s, spans);
  }
  World& w = *world;
  bool correct = team_ok;

  // References and the check self-test, outside every timer.
  for (Tenant& t : w.tenants) {
    make_references(t);
    // A physical solve of the reference solver on the current state feeds
    // the self-test of the checks.
    auto solver = reference_solver(t);
    const core::FetiStepResult r = solver->solve_step();
    std::string detail;
    const bool ok = t.check->solution_ok(t.problem, r.u, kBounds,
                                         &detail);
    emit_check(std::string("reference.") + t.spec->name, ok, detail);
    correct = ok && correct;
    correct = self_test(t.problem, *t.check, r.u, kBounds,
                        std::string("service.") + t.spec->name) &&
              correct;
  }

  // Replica solvers of the traced run: the pooled ones are private to the
  // service, so F̃ bytes per apply and the loop-fallback count are read
  // from an identically keyed solver serving every burst of a round on
  // unchanged values. The replicas run with Krylov recycling, which the
  // timed jobs leave off, so the recycler layer is measured here: every
  // wave after the first starts from the space the earlier ones left.
  long replica_fallbacks = 0;
  std::vector<double> projector_s;
  double recycled_jobs = 0.0, deflation = 0.0, recycled_iterations = 0.0;
  double recycle_stalls = 0.0;
  if (opt.trace) {
    for (std::size_t ti = 0; ti < w.tenants.size(); ++ti) {
      Tenant& t = w.tenants[ti];
      core::FetiSolverOptions o;
      o.dualop = service::SolverService::plan_config(
          make_job(t, ti, -1, false), 2, gpu::DeviceTopology{1, 0}, 0, 0);
      o.pcpg = pcpg_options();
      o.pcpg.block.recycle = true;
      o.pcpg.max_iterations = kRecycleMaxIterations;
      core::FetiSolver replica(t.problem, o,
                               &w.svc->device_pool().context(ti % 2));
      replica.prepare();
      for (const auto& slots : kBurstSlots) {
        std::vector<std::vector<double>> rhs;  // empty = the physical d
        for (int lc : slots)
          rhs.push_back(lc < 0 ? std::vector<double>{}
                               : t.load_cases[static_cast<std::size_t>(lc)]);
        for (const core::FetiStepResult& r : replica.solve_step_many(rhs)) {
          recycled_jobs += 1.0;
          deflation += r.deflation_dim;
          recycled_iterations += r.pcpg_iterations;
          recycle_stalls += r.converged ? 0.0 : 1.0;
        }
      }
      t.bytes_per_apply = replica.dual_operator().apply_bytes();
      replica_fallbacks += replica.dual_operator().loop_fallback_count();
      std::vector<double> y(t.load_cases[0].size());
      SpanScope span(spans, "projector.apply", -1);
      for (int r = 0; r < 5; ++r) {
        const auto t0 = Clock::now();
        replica.projector().apply(t.load_cases[0].data(), y.data());
        projector_s.push_back(seconds_since(t0));
      }
    }
  }

  // Warm-up round: every phase once, poison included, checked; its length
  // sizes the timed phase in whole rounds.
  long op = 0;
  const auto r0 = Clock::now();
  for (int ph = 0; ph < kPhases; ++ph)
    for (const Outcome& o : run_phase(w, ph, true, spans, -1))
      correct = correct && o.correct;
  const double per_round = seconds_since(r0);
  const long rounds =
      std::max<long>(1, std::lround(opt.seconds / std::max(per_round, 1e-6)));
  const long jobs_per_round =
      static_cast<long>(kPhases) * kBurst * static_cast<long>(kTenants.size());
  emit_plan(rounds * jobs_per_round, jobs_per_round);

  const service::PoolStats pool0 = w.svc->pool_stats();
  const service::ServiceStats stats0 = w.svc->stats();
  const gpu::TransferCounters::Snapshot xfer0 =
      gpu::TransferCounters::global().snapshot();
  const long waits0 = total_temp_waits(*w.svc);
  const double cpu0 = process_cpu_seconds();

  std::vector<double> queue_s, solve_s, wave_sizes;
  double update_s = 0.0, apply_s = 0.0, pcpg_s = 0.0, iterations = 0.0;
  double refreshed = 0.0, apply_bytes = 0.0;
  long cached = 0, completed = 0;
  const auto timed0 = Clock::now();
  for (long round = 0; round < rounds; ++round) {
    for (int ph = 0; ph < kPhases; ++ph) {
      std::vector<Outcome> out = run_phase(w, ph, true, spans, op);
      for (std::size_t i = 0; i < out.size(); ++i) {
        const Outcome& o = out[i];
        emit_op(op++, !o.failed, o.failed ? INFINITY : o.latency_s,
                seconds_since(timed0));
        correct = correct && o.correct;
        if (!o.has_result) continue;
        // Per-job shares of the wave-level figures. The block iterations
        // of a wave are the most any of its jobs took.
        const service::JobResult& r = o.result;
        const double ws = std::max(r.wave_size, 1);
        int wave_iters = 0;
        for (const Outcome& sibling : out)
          if (sibling.tenant == o.tenant)
            wave_iters = std::max(wave_iters, sibling.result.pcpg_iterations);
        ++completed;
        queue_s.push_back(r.queue_seconds);
        solve_s.push_back(r.solve_seconds);
        wave_sizes.push_back(r.wave_size);
        update_s += r.preprocess_seconds / ws;
        apply_s += r.apply_seconds / ws;
        pcpg_s += r.pcpg_seconds / ws;
        iterations += r.pcpg_iterations;
        refreshed += static_cast<double>(r.refreshed_subdomains) / ws;
        cached += r.values_cached ? 1 : 0;
        apply_bytes += static_cast<double>(w.tenants[o.tenant].bytes_per_apply) *
                       wave_iters / ws;
      }
    }
  }

  if (opt.trace) {
    const service::PoolStats pool1 = w.svc->pool_stats();
    const service::ServiceStats stats1 = w.svc->stats();
    const gpu::TransferCounters::Snapshot x =
        gpu::TransferCounters::global().snapshot() - xfer0;
    const double jobs = static_cast<double>(std::max<long>(op, 1));
    const double n = static_cast<double>(std::max<long>(completed, 1));
    const long hits = pool1.hits - pool0.hits;
    const long misses = pool1.misses - pool0.misses;
    const double waves = static_cast<double>(stats1.waves - stats0.waves);
    double device_mem = 0.0;
    for (std::size_t i = 0; i < w.svc->device_pool().size(); ++i)
      device_mem += static_cast<double>(
          w.svc->device_pool().device(i).memory_used());
    emit_layer("build.problem_s", median(build_s));
    emit_layer("solver.prepare_s", median(start_s));
    emit_layer("dualop.update_s", update_s / n);
    emit_layer("dualop.refreshed_subdomains", refreshed / n);
    emit_layer("dualop.solve_columns", 0.0);
    emit_layer("dualop.apply_s", apply_s / n);
    emit_layer("dualop.apply_calls", 0.0);
    emit_layer("dualop.apply_per_iter_s", 0.0);
    emit_layer("dualop.apply_bytes", apply_bytes / n);
    emit_layer("dualop.loop_fallbacks", static_cast<double>(replica_fallbacks));
    emit_layer("precond.update_s", 0.0);
    emit_layer("precond.apply_s", 0.0);
    emit_layer("precond.apply_calls", 0.0);
    emit_layer("pcpg.iterations", iterations / n);
    emit_layer("pcpg.s", pcpg_s / n);
    emit_layer("pcpg.other_s", (pcpg_s - apply_s) / n);
    emit_layer("projector.apply_s", median(projector_s));
    const double rj = std::max(recycled_jobs, 1.0);
    emit_layer("recycler.deflation_dim", deflation / rj);
    emit_layer("recycler.iterations", recycled_iterations / rj);
    emit_layer("recycler.stalled_jobs", recycle_stalls);
    emit_layer("gpu.h2d_bytes", static_cast<double>(x.h2d_bytes) / jobs);
    emit_layer("gpu.d2h_bytes", static_cast<double>(x.d2h_bytes) / jobs);
    emit_layer("gpu.h2d_calls", static_cast<double>(x.h2d_calls) / jobs);
    emit_layer("gpu.d2h_calls", static_cast<double>(x.d2h_calls) / jobs);
    emit_layer("gpu.temp_waits",
               static_cast<double>(total_temp_waits(*w.svc) - waits0) / jobs);
    emit_layer("gpu.device_mem_bytes", device_mem);
    emit_layer("process.cpu_s_per_step",
               (process_cpu_seconds() - cpu0) / jobs);
    emit_layer("service.queue_p50_s", median(queue_s));
    emit_layer("service.solve_p50_s", median(solve_s));
    emit_layer("service.wave_size_mean", mean(wave_sizes));
    emit_layer("service.waves", waves / static_cast<double>(rounds));
    emit_layer("service.pool_hit_ratio",
               hits + misses > 0 ? static_cast<double>(hits) /
                                       static_cast<double>(hits + misses)
                                 : 0.0);
    emit_layer("service.values_cached_ratio", static_cast<double>(cached) / n);
    emit_layer("service.pool_evictions",
               static_cast<double>(pool1.evictions - pool0.evictions));
    std::fflush(stdout);
    if (!opt.trace_out.empty() && !spans.write(opt.trace_out))
      emit_check("trace.write", false, opt.trace_out);
  }
  for (const Tenant& t : w.tenants)
    emit_check(std::string("service.") + t.spec->name + ".worst", true,
               t.worst.describe() + " bounds " + kBounds.describe());
  emit_check("run", correct, correct ? "all checks passed" : "a check failed");
  return 0;
}

}  // namespace perfbench
