/// ppqbench: one workload of the repository benchmark per process.
///
///   ppqbench --workload <porto-sealed|porto-live>
///            --seed <n> --seconds <s> --trace <0|1> --dir <work dir>
///            [--trace-out <chrome trace path>] [--scale <f>]
///
/// Prints progress lines, then one JSON line with the end-to-end metrics,
/// the per-layer metrics (traced runs), the values that must repeat for a
/// seed, the operations attempted and failed, and the peak thread count.
/// Exits non-zero when any operation failed its oracle.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ppqbench --workload <porto-sealed|porto-live> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "--dir <path> [--trace-out <path>] [--scale <f>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ppq::perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--scale") {
      args.scale = std::strtod(value.c_str(), nullptr);
    } else {
      return Usage();
    }
  }
  void (*run)(const ppq::perfbench::Args&, ppq::perfbench::Tracer&, ppq::perfbench::Report&) =
      nullptr;
  if (args.workload == "porto-sealed") run = ppq::perfbench::RunPortoSealed;
  if (args.workload == "porto-live") run = ppq::perfbench::RunPortoLive;
  if (run == nullptr || args.dir.empty() || !(args.seconds > 0) ||
      !(args.scale > 0)) {
    return Usage();
  }

  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  ppq::perfbench::SampleThreads();
  ppq::perfbench::ResetDirectory(args.dir);
  ppq::perfbench::Tracer tracer(args.trace);
  ppq::perfbench::Report report;
  try {
    run(args, tracer, report);
  } catch (const std::exception& e) {
    report.Fail(std::string("exception: ") + e.what());
  }
  report.Metric("peak_rss_mb", ppq::perfbench::PeakRssMb(), "MB");
  if (args.trace && !args.trace_out.empty()) {
    report.Attempt();
    if (!tracer.WriteChromeTrace(args.trace_out)) {
      report.Fail("could not write " + args.trace_out);
    }
  }
  std::printf("%s\n", report.ToJson(args.workload, args.seed).c_str());
  std::fflush(stdout);
  return report.failed() == 0 ? 0 : 1;
}
