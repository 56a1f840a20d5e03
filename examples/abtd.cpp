// abtd: the persistent solver daemon over the full builtin registry.
// Listens on a Unix-domain socket (--socket PATH) and/or loopback TCP
// (--port N; 0 picks an ephemeral port, printed on startup), serves the
// service protocol (docs/SERVICE.md) until SIGINT/SIGTERM, then drains
// and prints a stats summary. `abt_solve --connect <addr>` is the
// matching client.

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "core/lines.hpp"
#include "engine/builtin_solvers.hpp"
#include "service/server.hpp"

namespace {

using abt::core::parse_number;

volatile std::sig_atomic_t g_stop_requested = 0;

void handle_signal(int /*signum*/) { g_stop_requested = 1; }

void usage(std::ostream& os) {
  os << "usage: abtd (--socket PATH | --port N) [options]\n"
        "  --socket PATH          Unix-domain listener\n"
        "  --port N               loopback TCP listener (0 = ephemeral)\n"
        "  --dispatchers N        request worker threads (default 2)\n"
        "  --threads N            per-request solver fan-out (0 = hardware)\n"
        "  --queue-soft N         load beyond which budgets shrink "
        "(default 4)\n"
        "  --queue-cap N          queued beyond which requests are shed "
        "(default 16)\n"
        "  --default-budget-ms X  budget an unlimited request shrinks from "
        "(default 500)\n"
        "  --min-budget-factor X  admission shrink floor (default 0.1)\n"
        "  --max-progress N       cap on per-request progress events "
        "(default 16)\n"
        "  --cache-entries N      solution cache entries (default 512)\n"
        "  --cache-bytes N        solution cache bytes (default 16777216)\n";
}

}  // namespace

int main(int argc, char** argv) {
  abt::service::ServiceConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    }
    // Reads a numeric flag's value into `out`; false, after saying what
    // the flag wants, when it is missing, malformed or out of range.
    const auto number = [&](auto& out, auto valid, const char* wants) {
      const char* value = need_value(arg.c_str());
      if (value == nullptr) return false;
      if (parse_number(value, out) && valid(out)) return true;
      std::cerr << arg << " needs " << wants << "\n";
      return false;
    };
    const auto positive = [](auto v) { return v > 0; };
    const auto non_negative = [](auto v) { return v >= 0; };
    bool ok = true;
    if (arg == "--socket") {
      const char* value = need_value("--socket");
      if (value == nullptr) return 64;
      config.socket_path = value;
    } else if (arg == "--port") {
      ok = number(config.tcp_port, [](int v) { return v >= 0 && v <= 65535; },
                  "0..65535");
    } else if (arg == "--dispatchers") {
      ok = number(config.dispatchers, positive, "a positive integer");
    } else if (arg == "--threads") {
      ok = number(config.threads, non_negative, "a non-negative integer");
    } else if (arg == "--queue-soft") {
      ok = number(config.queue_soft, non_negative, "a non-negative integer");
    } else if (arg == "--queue-cap") {
      ok = number(config.queue_cap, positive, "a positive integer");
    } else if (arg == "--default-budget-ms") {
      ok = number(config.default_budget_ms, positive, "a positive number");
    } else if (arg == "--min-budget-factor") {
      ok = number(config.min_budget_factor,
                  [](double v) { return v > 0.0 && v <= 1.0; },
                  "a number in (0, 1]");
    } else if (arg == "--max-progress") {
      ok = number(config.max_progress, positive, "a positive integer");
    } else if (arg == "--cache-entries" || arg == "--cache-bytes") {
      int limit = 0;
      ok = number(limit, positive, "a positive integer");
      (arg == "--cache-entries" ? config.cache_entries : config.cache_bytes) =
          static_cast<std::size_t>(limit);
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      usage(std::cerr);
      return 64;
    }
    if (!ok) return 64;
  }
  if (config.socket_path.empty() && config.tcp_port < 0) {
    usage(std::cerr);
    return 64;
  }

  const abt::core::SolverRegistry& registry = abt::engine::shared_registry();

  abt::service::Server server(registry, config);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "abtd: " << error << "\n";
    return 1;
  }
  if (!config.socket_path.empty()) {
    std::cout << "abtd listening on " << config.socket_path << "\n";
  }
  if (config.tcp_port >= 0) {
    std::cout << "abtd listening on 127.0.0.1:" << server.tcp_port() << "\n";
  }
  std::cout.flush();

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::cerr << "abtd: shutting down\n";
  server.stop();

  const abt::service::ServiceStats stats = server.stats();
  std::cerr << "abtd: accepted " << stats.accepted << ", served "
            << stats.served << ", errors " << stats.errors << ", shed "
            << stats.shed << ", shrunk " << stats.shrunk << ", cache hits "
            << stats.cache.hits << "/" << stats.cache.hits + stats.cache.misses
            << "\n";
  return 0;
}
