// bench_e2e: end-to-end benchmark of the xdb Engine facade.
//
//   bench_e2e --workload <catalog_lookup|catalog_mixed|deep_paths>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints the build it runs on, human-readable notes (sample counts, wrong
// answers with a repro line per query shape, the traced run's self-time
// report), each metric by name with its unit, and as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
//
// Exits non-zero without a result when the build is not an optimized,
// sanitizer-free Release build, when the load breaks, or when an
// acknowledged write is missing after reopen.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

bool SanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strstr(XDB_BENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
}

bool DebugBuild() {
#ifdef NDEBUG
  return std::strcmp(XDB_BENCH_BUILD_TYPE, "Release") != 0;
#else
  return true;
#endif
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bench_e2e::RunConfig cfg;
  cfg.work_dir = ".bench_build/bench_e2e/work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") cfg.workload = v;
    else if (flag == "--seed") cfg.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") cfg.seconds = std::strtod(v, nullptr);
    else if (flag == "--trace") cfg.trace = std::strcmp(v, "0") != 0;
    else if (flag == "--work-dir") cfg.work_dir = v;
    else return Usage(argv[0]);
  }
  bool known = false;
  for (const std::string& w : bench_e2e::WorkloadNames())
    known = known || w == cfg.workload;
  if (!known || cfg.seconds <= 0 || argc % 2 == 0) return Usage(argv[0]);

  std::printf("build: type=%s flags=\"%s\" compiler=\"%s\" nproc=%u\n",
              XDB_BENCH_BUILD_TYPE, XDB_BENCH_CXX_FLAGS, XDB_BENCH_COMPILER,
              std::thread::hardware_concurrency());
  if (DebugBuild() || SanitizedBuild()) {
    std::fprintf(stderr,
                 "refusing to report: not an optimized Release build without "
                 "sanitizers\n");
    return 3;
  }
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d client_threads=1"
              " num_query_threads=1\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::fflush(stdout);

  std::filesystem::create_directories(cfg.work_dir);
  const bench_e2e::RunReport r = bench_e2e::RunWorkload(cfg);
  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  if (!r.fatal.empty()) {
    std::printf("FATAL: %s\n", r.fatal.c_str());
    return 1;
  }
  for (const bench_e2e::MetricOut& m : r.metrics)
    std::printf("metric %s = %.10g %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.in_result ? "" : " (not in the result)");
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  const char* sep = "";
  for (const bench_e2e::MetricOut& m : r.metrics) {
    if (!m.in_result) continue;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", sep,
                  m.name.c_str(), m.value, m.unit.c_str());
    json += buf;
    sep = ", ";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
