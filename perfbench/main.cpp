// perfbench: the repository benchmark's binary (README.md in this
// directory; run through run.py, which builds it first).
//
//   perfbench --workload cluster_10k|batch_sweep --seed N
//             --seconds S --trace 0|1 [--trace-out FILE] [--commit ID]
//
// Prints a `# header` line describing the build, a `# digest` line per
// workload, and, as its last line, one JSON object:
//   {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
// Exit status 0 when every output check passed, 1 when one failed, 2 on a
// usage error or an unexpected exception.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"
#include "obs/registry.h"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

// Build facts that decide whether two results measure the same program.
// Numeric checks and sanitizers change the code on the hot path, so such
// builds are marked comparable=false and never compared with a plain one.
void print_header(const perfbench::Args& args, const std::string& commit) {
#if defined(EUCON_NUMERIC_CHECKS)
  const bool numeric_checks = true;
#else
  const bool numeric_checks = false;
#endif
  const std::string sanitize = PERFBENCH_SANITIZE;
#if defined(__clang__)
  const std::string compiler = __VERSION__;
#else
  const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
  const bool comparable = !numeric_checks && sanitize.empty();
  std::printf(
      "# header {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
      "\"trace\": %d, \"nproc\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"eucon_obs\": %s, "
      "\"eucon_numeric_checks\": %s, \"sanitizers\": \"%s\", "
      "\"commit\": \"%s\", \"comparable\": %s}\n",
      json_escape(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      json_escape(compiler).c_str(), PERFBENCH_BUILD_TYPE,
      eucon::obs::kEnabled ? "true" : "false",
      numeric_checks ? "true" : "false", json_escape(sanitize).c_str(),
      json_escape(commit).c_str(), comparable ? "true" : "false");
  if (!comparable)
    std::fprintf(stderr,
                 "perfbench: WARNING: built with numeric checks or "
                 "sanitizers; this is a different program, not comparable "
                 "with a plain build\n");
}

void print_result(const perfbench::Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    // Non-finite values are not JSON numbers (main() has failed them).
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cluster_10k|batch_sweep "
               "--seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--commit ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0))
        return usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return usage();
    }
  }
  void (*workload)(const perfbench::Args&, perfbench::Outcome&) = nullptr;
  if (args.workload == "cluster_10k") workload = perfbench::cluster_10k;
  if (args.workload == "batch_sweep") workload = perfbench::batch_sweep;
  if (workload == nullptr) return usage();

  print_header(args, commit);
  std::fflush(stdout);
  perfbench::Outcome out;
  try {
    workload(args, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: unexpected exception: %s\n",
                 args.workload.c_str(), e.what());
    return 2;
  }
  if (out.attempted == 0) out.fail("no operation was attempted");
  for (const perfbench::Metric& m : out.metrics)
    if (!std::isfinite(m.value)) out.fail(m.name + " is not finite");
  print_result(out);
  return out.correct ? 0 : 1;
}
