// perfbench: the repository benchmark binary. Usage:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --abtd PATH --work-dir DIR [--smoke]
//
// Prints informational `#` lines, then one JSON result line (the last
// line of standard output). perfbench/run.py builds this binary and abtd
// from the checkout and supplies --abtd and --work-dir.

#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

bool parse_number(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "perfbench: " << arg << " needs a value\n";
      return 64;
    }
    const std::string value = argv[++i];
    double number = 0.0;
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--abtd") {
      args.abtd = value;
    } else if (arg == "--work-dir") {
      args.work_dir = value;
    } else if (!parse_number(value, &number) || number < 0.0) {
      std::cerr << "perfbench: " << arg << " needs a non-negative number\n";
      return 64;
    } else if (arg == "--seed") {
      args.seed = static_cast<std::uint64_t>(number);
    } else if (arg == "--seconds") {
      args.seconds = number;
    } else if (arg == "--trace") {
      args.trace = number != 0.0;
    } else {
      std::cerr << "perfbench: unknown option " << arg << "\n";
      return 64;
    }
  }
  if (args.work_dir.empty() || args.seconds <= 0.0) {
    std::cerr << "perfbench: --work-dir and a positive --seconds are required\n";
    return 64;
  }
  if (perfbench::is_service_workload(args.workload)) {
    if (args.abtd.empty()) {
      std::cerr << "perfbench: service workloads need --abtd\n";
      return 64;
    }
    return perfbench::run_service_workload(args);
  }
  if (perfbench::is_campaign_workload(args.workload)) {
    return perfbench::run_campaign_workload(args);
  }
  std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
  return 64;
}
