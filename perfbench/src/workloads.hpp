#pragma once

// The four benchmark workloads. svc-light and svc-mixed drive a fresh
// `abtd` over a Unix socket; campaign-exact and campaign-large call
// engine::run_campaign in-process. Each runner prints its result line
// and returns the process exit code.

#include <cstdint>
#include <string>

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  std::string abtd;      ///< Path of the abtd binary (service workloads).
  std::string work_dir;  ///< Sockets and trace files go here.
  bool smoke = false;    ///< Tiny sizes, for the benchmark's own tests.
};

[[nodiscard]] bool is_service_workload(const std::string& name);
[[nodiscard]] bool is_campaign_workload(const std::string& name);

int run_service_workload(const RunArgs& args);
int run_campaign_workload(const RunArgs& args);

}  // namespace perfbench
