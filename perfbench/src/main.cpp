// feti_perfbench — the end-to-end benchmark program. run.py builds it and
// calls it once per run:
//
//   feti_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <path>]
//
// It prints the line protocol of harness.hpp; run.py turns that into the
// benchmark's JSON record.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "harness.hpp"

namespace perfbench {

bool SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"op\": " << s.op << ", \"parent\": " << s.parent
        << ", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

namespace {

/// libgomp reads OMP_NUM_THREADS and OMP_WAIT_POLICY once, at start-up, and
/// threads the library starts itself (service workers) take their team
/// from there. So the program puts its thread budget into the environment
/// and executes itself once more; the second start finds it in place.
/// Returns only when the environment already holds it (or exec failed).
bool ensure_omp_environment(const std::string& workload, char** argv) {
  const std::string team = std::to_string(perfbench::omp_team(workload));
  const char* n = std::getenv("OMP_NUM_THREADS");
  const char* w = std::getenv("OMP_WAIT_POLICY");
  if (n != nullptr && team == n && w != nullptr &&
      std::string(w) == "PASSIVE" && std::getenv("OMP_PROC_BIND") == nullptr)
    return true;
  setenv("OMP_NUM_THREADS", team.c_str(), 1);
  setenv("OMP_WAIT_POLICY", "PASSIVE", 1);
  unsetenv("OMP_PROC_BIND");
  execv("/proc/self/exe", argv);
  std::perror("feti_perfbench: execv");
  return false;
}

int usage() {
  std::fprintf(stderr,
               "usage: feti_perfbench --workload <transient-gpu-2d|"
               "transient-gpu-3d|transient-cpu-2d|service-mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i], v = argv[i + 1];
    if (a == "--workload") opt.workload = v;
    else if (a == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::atof(v.c_str());
    else if (a == "--trace") opt.trace = v == "1";
    else if (a == "--trace-out") opt.trace_out = v;
    else return usage();
  }
  if (opt.workload.empty() || opt.seconds <= 0.0) return usage();
  if (!ensure_omp_environment(opt.workload, argv)) return 1;
  try {
    if (opt.workload == "service-mix") return perfbench::run_service_mix(opt);
    const int rc = perfbench::run_transient(opt);
    return rc == 2 ? usage() : rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "feti_perfbench: %s\n", e.what());
    return 1;
  }
}
