// svc-light and svc-mixed: a fresh `abtd` (default flags, Unix socket)
// driven by one load-generating process with kMaxInFlight threads, each
// holding at most one connection.
//
// Timed run: rounds of set-up probes (spawn to first answered request)
// and a closed loop, each round on a fresh daemon. Traced run: the
// open-loop request stream replayed in-process, layer by layer in
// Server::handle_solve order, then one open loop with Poisson arrivals
// against a daemon with a `stats` sample every 50 ms, then one closed loop
// on another daemon as the end-to-end reference.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "engine/builtin_solvers.hpp"
#include "engine/parallel.hpp"
#include "engine/portfolio.hpp"
#include "engine/runner.hpp"
#include "report.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = abt::core;
namespace engine = abt::engine;
namespace svc = abt::service;

/// Load-generator threads, hence requests in flight and open connections.
constexpr int kMaxInFlight = 4;

// ------------------------------------------------------------- the inputs

/// One kind of request in a workload's mix.
struct RequestClass {
  const char* scenario;
  int n;
  std::vector<std::string> solvers;  ///< Empty = every applicable solver.
  double budget_ms;                  ///< 0 = no budget.
  bool race;
};

struct ServiceShape {
  double open_rate = 0.0;  ///< Open-loop Poisson arrivals per second.
  std::size_t hot = 0;     ///< Hot-set size: repeated requests, cache hits.
  /// Distinct non-hot requests, cycled. More than the daemon's 512 cache
  /// entries, so a request is always evicted before it comes round again.
  std::size_t unique = 0;
  double hot_share = 0.0;  ///< Share of the stream drawn from the hot set.
  /// Cumulative shares of the request classes.
  std::vector<std::pair<double, RequestClass>> mix;
};

ServiceShape shape_of(const RunArgs& args) {
  const std::vector<std::string> weighted_pair = {"busy/weighted-exact",
                                                  "busy/weighted-narrow-wide"};
  ServiceShape shape;
  if (args.workload == "svc-light") {
    shape.open_rate = 2000.0;
    shape.hot = 32;
    shape.unique = args.smoke ? 64 : 2048;
    shape.hot_share = 0.5;
    shape.mix = {
        {0.5, {"weighted", 24, {"busy/weighted-first-fit"}, 0.0, false}},
        {1.0,
         {"interval", 48, {"busy/first-fit", "busy/greedy-tracking"}, 0.0,
          false}},
    };
  } else {
    shape.open_rate = 200.0;
    shape.unique = args.smoke ? 32 : 1024;
    shape.mix = {
        {0.5, {"interval", 40, {}, 0.0, false}},
        {0.8, {"flexible", 24, {}, 0.0, false}},
        {0.9, {"weighted", 16, weighted_pair, 20.0, false}},
        {1.0, {"weighted", 24, weighted_pair, 20.0, true}},
    };
  }
  return shape;
}

/// A reference row: what a deterministic solver must answer.
struct Expected {
  std::string solver;
  bool ok = false;
  double cost = 0.0;
};

/// A generated request, ready to send, with its in-process reference.
struct Pooled {
  svc::Frame frame;
  bool race = false;
  bool short_request = true;  ///< Carries no budget.
  /// Rows whose answer is a pure function of the instance: every solver
  /// of an unbudgeted request, the polynomial ones of a budgeted one.
  std::vector<Expected> expected;
};

bool make_pooled(const core::SolverRegistry& registry,
                 const RequestClass& cls, std::uint64_t seed, Pooled* out,
                 double* make_scenario_us, std::string* error) {
  engine::ScenarioSpec spec;
  spec.name = cls.scenario;
  spec.n = cls.n;
  spec.g = 4;
  spec.seed = seed;
  const Clock::time_point t0 = Clock::now();
  std::optional<core::ProblemInstance> inst = engine::make_scenario(spec, error);
  *make_scenario_us = us_between(t0, Clock::now());
  if (!inst.has_value()) return false;

  svc::SolveRequest request;
  request.instance = std::move(*inst);
  request.solvers = cls.solvers;
  request.budget_ms = cls.budget_ms;
  std::ostringstream payload;
  if (!svc::write_solve_payload(payload, request, error)) return false;
  out->frame.type = cls.race ? svc::FrameType::kRace : svc::FrameType::kSolve;
  out->frame.payload = payload.str();
  out->race = cls.race;
  out->short_request = cls.budget_ms <= 0.0;

  // The reference runs on exactly what the daemon will parse.
  svc::SolveRequest parsed;
  if (!svc::parse_solve_payload(out->frame.payload, &parsed, error)) {
    return false;
  }
  const core::RunContext ctx = core::RunContext::with_budget_ms(parsed.budget_ms);
  for (const core::Solver* solver :
       registry.selection(parsed.instance, parsed.solvers, ctx)) {
    if (solver->exact && ctx.has_budget()) continue;  // anytime answer
    const core::Solution sol =
        registry.run(*solver, parsed.instance, ctx.restarted());
    out->expected.push_back({solver->name, sol.ok, sol.cost});
  }
  return true;
}

/// The traffic shape -- each request's class, hot or unique draw and
/// arrival time -- is part of the workload's definition and comes from
/// this fixed seed; --seed picks the instances. Head-of-line waits on
/// svc-mixed hinge on how budgeted requests happen to overlap, so a
/// per-seed shape would make the latency figures a matter of the seed.
constexpr std::uint64_t kTrafficSeed = 7;

struct Inputs {
  ServiceShape shape;
  std::vector<Pooled> pool;  ///< Hot set first, then the unique requests.
  std::vector<double> make_scenario_us;

  /// Pool index of stream position `position` (fixed, so every phase and
  /// the replay see the same stream).
  [[nodiscard]] std::size_t at(std::uint64_t position) const {
    const std::uint64_t draw = mix_seed(kTrafficSeed ^ 0x5eedULL, position);
    if (shape.hot > 0 &&
        static_cast<double>(draw >> 11) * 0x1.0p-53 < shape.hot_share) {
      return static_cast<std::size_t>(mix_seed(draw, 1) % shape.hot);
    }
    return shape.hot + static_cast<std::size_t>(position % shape.unique);
  }
};

/// Class labels for `count` requests in exactly the mix's proportions.
std::vector<std::size_t> stratified_classes(const ServiceShape& shape,
                                            std::size_t count, Rng& rng) {
  std::vector<std::size_t> labels;
  for (std::size_t c = 0; c < shape.mix.size(); ++c) {
    const auto upto = static_cast<std::size_t>(
        std::llround(shape.mix[c].first * static_cast<double>(count)));
    labels.resize(std::max(labels.size(), std::min(upto, count)), c);
  }
  for (std::size_t i = labels.size(); i > 1; --i) {
    std::swap(labels[i - 1], labels[rng.next() % i]);
  }
  return labels;
}

bool generate(const core::SolverRegistry& registry, const RunArgs& args,
              Inputs* in, std::string* error) {
  in->shape = shape_of(args);
  const std::size_t total = in->shape.hot + in->shape.unique;
  Rng rng(mix_seed(kTrafficSeed, 0xc1a55ULL));
  std::vector<std::size_t> classes =
      stratified_classes(in->shape, in->shape.hot, rng);
  const std::vector<std::size_t> unique_classes =
      stratified_classes(in->shape, in->shape.unique, rng);
  classes.insert(classes.end(), unique_classes.begin(), unique_classes.end());
  in->pool.resize(total);
  in->make_scenario_us.resize(total);
  std::vector<std::string> errors(total);
  engine::parallel_for(4, total, [&](std::size_t i) {
    const std::uint64_t instance_seed = mix_seed(args.seed, i) % 1000000007ULL;
    if (!make_pooled(registry, in->shape.mix[classes[i]].second,
                     instance_seed, &in->pool[i], &in->make_scenario_us[i],
                     &errors[i])) {
      errors[i] = "request " + std::to_string(i) + ": " + errors[i];
    }
  });
  for (const std::string& why : errors) {
    if (!why.empty()) {
      *error = why;
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------ checking responses

struct Verdict {
  std::string failure;  ///< Empty = correct.
  int verified_rows = 0;
  double ratio_sum = 0.0;
  int ratio_count = 0;
};

const Expected* find_expected(const Pooled& request, const std::string& name) {
  for (const Expected& e : request.expected) {
    if (e.solver == name) return &e;
  }
  return nullptr;
}

/// Checks a final frame against the request's reference: feasibility of
/// every row, deterministic costs, certified bounds, the race winner.
Verdict check_response(const Pooled& request, const svc::Frame& final) {
  Verdict v;
  if (final.type != svc::FrameType::kOk) {
    v.failure = std::string(svc::frame_type_name(final.type)) +
                " frame: " + final.payload.substr(0, 120);
    return v;
  }
  const bool shrunk = final.has_flag("budget-ms");
  const std::optional<Json> doc = parse_json(final.payload);
  if (!doc.has_value()) {
    v.failure = "unparseable response payload";
    return v;
  }
  const Json* rows = doc->find(request.race ? "rows" : "solutions");
  const Json* bound_obj =
      request.race ? (doc->find("race") != nullptr
                          ? doc->find("race")->find("reference")
                          : nullptr)
                   : doc->find("lower_bound");
  if (rows == nullptr || bound_obj == nullptr) {
    v.failure = "response lacks rows or bound";
    return v;
  }
  const double lower_bound = bound_obj->num("value");
  for (const Expected& e : request.expected) {
    bool present = false;
    for (const Json& row : rows->items) present |= row.str("solver") == e.solver;
    if (!present) {
      v.failure = "missing row " + e.solver;
      return v;
    }
  }
  for (const Json& row : rows->items) {
    const std::string name = row.str("solver");
    const bool ok = row.flag("ok");
    const bool timed_out = row.flag("timed_out");
    const double cost = row.num("cost");
    const double best_bound = row.num("best_bound");
    if (ok && !row.flag("feasible")) {
      v.failure = "infeasible row " + name;
      return v;
    }
    if (ok && best_bound > 0.0 && cost < best_bound * (1.0 - 1e-9) - 1e-9) {
      v.failure = "row " + name + " costs less than its certified bound";
      return v;
    }
    if (timed_out && !request.race && request.short_request && !shrunk) {
      v.failure = "unbudgeted row " + name + " timed out";
      return v;
    }
    const Expected* e = find_expected(request, name);
    if (e != nullptr && !timed_out &&
        (ok != e->ok || (ok && cost != e->cost))) {
      std::ostringstream why;
      why.precision(17);
      why << "row " << name << " cost " << cost << ", reference " << e->cost;
      v.failure = why.str();
      return v;
    }
    if (!ok) continue;
    ++v.verified_rows;
    // Only unbudgeted answers enter ratio_mean: a budgeted response's
    // lower bound depends on how far its time-limited exact solver got.
    if (!request.race && request.short_request && !shrunk && e != nullptr &&
        lower_bound > 0.0) {
      v.ratio_sum += cost / lower_bound;
      ++v.ratio_count;
    }
  }
  if (request.race && doc->find("race")->num("best", -1.0) < 0.0) {
    v.failure = "race returned no verified row";
  }
  return v;
}

/// Cached replays must be byte-identical to a computed response for the
/// same request. Two concurrent misses of one key may both compute and
/// insert, so any computed payload of that key qualifies; a replay that
/// arrives before the response it copies is checked at the end.
class ReplayAudit {
 public:
  void record(std::size_t key, bool cached, const std::string& payload) {
    const std::uint64_t digest = std::hash<std::string>{}(payload);
    const std::lock_guard<std::mutex> lock(mutex_);
    if (cached) {
      cached_.emplace_back(key, digest);
    } else {
      computed_[key].push_back(digest);
    }
  }

  /// Number of cached replays that match no computed payload.
  [[nodiscard]] long long mismatches() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    long long bad = 0;
    for (const auto& [key, digest] : cached_) {
      const auto it = computed_.find(key);
      bool found = false;
      if (it != computed_.end()) {
        for (const std::uint64_t d : it->second) found |= d == digest;
      }
      if (!found) ++bad;
    }
    return bad;
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::size_t, std::vector<std::uint64_t>> computed_;
  std::vector<std::pair<std::size_t, std::uint64_t>> cached_;
};

// ----------------------------------------------------------------- daemon

/// A child `abtd` on a Unix socket. The child gets SIGTERM if this process
/// dies, and the destructor always reaps it.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket_path)
      : spawned_(Clock::now()) {
    address_.socket_path = socket_path;
    ::unlink(socket_path.c_str());
    pid_ = ::fork();
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      const int devnull = ::open("/dev/null", O_RDWR);
      if (devnull >= 0) {
        ::dup2(devnull, STDIN_FILENO);
        ::dup2(devnull, STDOUT_FILENO);
        ::dup2(devnull, STDERR_FILENO);
      }
      ::execl(binary.c_str(), binary.c_str(), "--socket", socket_path.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
  }
  ~Daemon() { stop(false); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Polls with `stats` until the daemon answers, and notes the time from
  /// spawn to that answer. False when it exits or does not answer within
  /// `timeout_s`.
  bool wait_ready(double timeout_s, std::string* error) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    svc::Frame stats;
    stats.type = svc::FrameType::kStats;
    while (Clock::now() < deadline) {
      std::string ignored;
      const auto exchange = svc::client_roundtrip(address_, stats, &ignored);
      if (exchange.has_value() &&
          exchange->final.type == svc::FrameType::kOk) {
        ready_s_ =
            std::chrono::duration<double>(Clock::now() - spawned_).count();
        return true;
      }
      int status = 0;
      if (pid_ <= 0 || ::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        *error = "abtd exited before answering";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    *error = "abtd did not answer within the start-up timeout";
    return false;
  }

  /// Spawn to first answered request, once wait_ready() succeeded.
  [[nodiscard]] double ready_s() const { return ready_s_; }

  [[nodiscard]] double peak_rss() const {
    return pid_ > 0 ? peak_rss_mb(pid_) : 0.0;
  }

  /// SIGTERM (graceful drain) or SIGKILL, then reap.
  void stop(bool graceful) {
    if (pid_ <= 0) return;
    ::kill(pid_, graceful ? SIGTERM : SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    ::unlink(address_.socket_path.c_str());
  }

  [[nodiscard]] const svc::Address& address() const { return address_; }

 private:
  Clock::time_point spawned_;
  double ready_s_ = 0.0;
  pid_t pid_ = -1;
  svc::Address address_;
};

std::string socket_path(const RunArgs& args, const char* tag) {
  static int counter = 0;
  return args.work_dir + "/abtd-" + std::to_string(::getpid()) + "-" + tag +
         std::to_string(counter++) + ".sock";
}

// -------------------------------------------------------------- the loops

struct StatsSample {
  double rtt_us = 0.0;
  Json body;
};

/// One answered request.
struct Sample {
  std::uint64_t position = 0;
  Clock::time_point due;  ///< Scheduled (open loop) or sent (closed loop).
  Clock::time_point done;
  double lag_ms = 0.0;      ///< Send time minus due time.
  double latency_ms = 0.0;  ///< Done minus due; +inf when the answer failed.
  bool short_request = true;
};

/// Per-phase outcome, merged from the generator threads.
struct LoopResult {
  std::vector<Sample> samples;
  /// (completion time, verified rows) of every correct closed-loop answer.
  std::vector<std::pair<Clock::time_point, int>> completions;
  std::vector<StatsSample> stats;
  Ledger ledger;
  double ratio_sum = 0.0;
  double ratio_count = 0.0;

  void merge(LoopResult&& other) {
    auto append = [](auto& to, auto& from) {
      to.insert(to.end(), std::make_move_iterator(from.begin()),
                std::make_move_iterator(from.end()));
    };
    append(samples, other.samples);
    append(completions, other.completions);
    append(stats, other.stats);
    ledger.merge(other.ledger);
    ratio_sum += other.ratio_sum;
    ratio_count += other.ratio_count;
  }

  [[nodiscard]] std::vector<double> latencies(bool short_only) const {
    std::vector<double> out;
    for (const Sample& s : samples) {
      if (!short_only || s.short_request) out.push_back(s.latency_ms);
    }
    return out;
  }
  [[nodiscard]] std::vector<double> lags() const {
    std::vector<double> out;
    for (const Sample& s : samples) out.push_back(s.lag_ms);
    return out;
  }
};

/// Sends stream position `position` and checks the answer. True when the
/// response was correct; `*received` is when the final frame arrived, so
/// the check itself stays out of the latency.
bool exchange_one(const Inputs& in, const svc::Address& address,
                  std::uint64_t position, ReplayAudit& audit, LoopResult& out,
                  int* verified_rows, Clock::time_point* received) {
  const std::size_t key = in.at(position);
  const Pooled& request = in.pool[key];
  out.ledger.attempt();
  std::string error;
  const std::optional<svc::Exchange> exchange =
      svc::client_roundtrip(address, request.frame, &error);
  *received = Clock::now();
  if (!exchange.has_value()) {
    out.ledger.fail("transport: " + error);
    return false;
  }
  const Verdict v = check_response(request, exchange->final);
  if (!v.failure.empty()) {
    out.ledger.fail(v.failure);
    return false;
  }
  audit.record(key, exchange->final.has_flag("cached"),
               exchange->final.payload);
  out.ratio_sum += v.ratio_sum;
  out.ratio_count += v.ratio_count;
  *verified_rows = v.verified_rows;
  return true;
}

struct OpenEvent {
  double due_s = 0.0;
  std::uint64_t position = 0;
  bool stats = false;
};

/// Poisson arrivals for `requests` stream positions, plus (when
/// `stats_every_s` > 0) a `stats` sample at that period over the same span.
std::vector<OpenEvent> open_schedule(const Inputs& in, std::uint64_t requests,
                                     double stats_every_s) {
  std::vector<OpenEvent> events;
  Rng rng(mix_seed(kTrafficSeed, 0xa771ULL));
  double t = 0.0;
  for (std::uint64_t p = 0; p < requests; ++p) {
    t += rng.exponential(in.shape.open_rate);
    events.push_back({t, p, false});
  }
  if (stats_every_s > 0.0) {
    const double end = t;
    for (double s = stats_every_s; s < end; s += stats_every_s) {
      events.push_back({s, 0, true});
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const OpenEvent& a, const OpenEvent& b) {
                       return a.due_s < b.due_s;
                     });
  }
  return events;
}

/// Open loop: each event is due at its scheduled time whatever the
/// daemon's state; latency runs from the due time, so generator lag
/// counts. kMaxInFlight workers keep at most that many requests in flight.
LoopResult open_loop(const Inputs& in, const svc::Address& address,
                     const std::vector<OpenEvent>& events,
                     ReplayAudit& audit) {
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  std::vector<LoopResult> results(static_cast<std::size_t>(kMaxInFlight));
  std::vector<std::thread> workers;
  for (int w = 0; w < kMaxInFlight; ++w) {
    workers.emplace_back([&, w] {
      ::prctl(PR_SET_TIMERSLACK, 1UL);  // wake on time, not 50 us late
      LoopResult& out = results[static_cast<std::size_t>(w)];
      while (true) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= events.size()) break;
        const OpenEvent& event = events[i];
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(event.due_s));
        std::this_thread::sleep_until(due);
        const Clock::time_point start = Clock::now();
        if (event.stats) {
          svc::Frame frame;
          frame.type = svc::FrameType::kStats;
          std::string error;
          const auto exchange = svc::client_roundtrip(address, frame, &error);
          const Clock::time_point done = Clock::now();
          std::optional<Json> body;
          if (exchange.has_value()) body = parse_json(exchange->final.payload);
          if (body.has_value()) {
            out.stats.push_back({us_between(start, done), std::move(*body)});
          }
          continue;
        }
        int rows = 0;
        Sample sample;
        const bool ok = exchange_one(in, address, event.position, audit, out,
                                     &rows, &sample.done);
        sample.position = event.position;
        sample.due = due;
        sample.lag_ms = ms_between(due, start);
        // A failed request misses every latency limit.
        sample.latency_ms = ok ? ms_between(due, sample.done)
                               : std::numeric_limits<double>::infinity();
        sample.short_request = in.pool[in.at(event.position)].short_request;
        out.samples.push_back(sample);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  LoopResult merged;
  for (LoopResult& r : results) merged.merge(std::move(r));
  return merged;
}

/// Closed loop: kMaxInFlight clients, each sending its next request when the
/// previous reply arrives, for `seconds`. Each request is timed from its
/// send to its answer. Returns the start time.
Clock::time_point closed_loop(const Inputs& in, const svc::Address& address,
                              double seconds, ReplayAudit& audit,
                              LoopResult* merged) {
  std::atomic<std::uint64_t> next{0};
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<LoopResult> results(static_cast<std::size_t>(kMaxInFlight));
  std::vector<std::thread> workers;
  for (int w = 0; w < kMaxInFlight; ++w) {
    workers.emplace_back([&, w] {
      LoopResult& out = results[static_cast<std::size_t>(w)];
      while (Clock::now() < deadline) {
        int rows = 0;
        Sample sample;
        sample.position = next.fetch_add(1, std::memory_order_relaxed);
        sample.due = Clock::now();
        const bool ok = exchange_one(in, address, sample.position, audit, out,
                                     &rows, &sample.done);
        // A failed request misses every latency limit.
        sample.latency_ms = ok ? ms_between(sample.due, sample.done)
                               : std::numeric_limits<double>::infinity();
        sample.short_request = in.pool[in.at(sample.position)].short_request;
        out.samples.push_back(sample);
        if (ok) out.completions.emplace_back(sample.done, rows);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (LoopResult& r : results) merged->merge(std::move(r));
  return t0;
}

// ---------------------------------------------------------- traced replay

struct Replay {
  SpanLog log;
  svc::CacheStats cache;
  Ledger ledger;
  double rows = 0.0;
  double timed_out_rows = 0.0;
  double race_cancelled = 0.0;
  PoolCounters pool_before;
  PoolCounters pool_after;
};

/// Replays stream positions [0, requests) in-process, in the order
/// Server::handle_solve runs its layers, against a SolutionCache with the
/// daemon's default caps.
void replay(const core::SolverRegistry& registry, const Inputs& in,
            std::uint64_t requests, Replay* out) {
  const svc::ServiceConfig defaults;
  svc::SolutionCache cache(defaults.cache_entries, defaults.cache_bytes);
  SpanLog& log = out->log;
  out->pool_before = pool_counters();
  for (std::uint64_t id = 0; id < requests; ++id) {
    const Pooled& pooled = in.pool[in.at(id)];
    out->ledger.attempt();
    const std::int32_t root = log.begin(id, "replay.request");
    std::string error;

    std::int32_t s = log.begin(id, "service.frame", root);
    std::ostringstream wire;
    svc::write_frame(wire, pooled.frame);
    std::istringstream wire_in(wire.str());
    svc::Frame frame;
    const bool framed = svc::read_frame(wire_in, &frame, &error);
    log.end(s);

    s = log.begin(id, "service.parse", root);
    svc::SolveRequest request;
    const bool parsed = framed && svc::parse_solve_payload(frame.payload,
                                                           &request, &error);
    request.race = frame.type == svc::FrameType::kRace;
    log.end(s);
    if (!parsed) {
      log.end(root);
      out->ledger.fail("replay parse: " + error);
      continue;
    }

    s = log.begin(id, "service.cache_key", root);
    const std::string key = svc::cache_key(request);
    log.end(s);

    s = log.begin(id, "service.cache_lookup", root);
    std::optional<svc::SolutionCache::Entry> hit = cache.lookup(key);
    log.end(s);

    svc::Frame reply;
    reply.type = svc::FrameType::kOk;
    if (hit.has_value()) {
      reply.flags.emplace_back("exit", std::to_string(hit->exit_code));
      reply.flags.emplace_back("cached", "1");
      reply.payload = std::move(hit->payload);
    } else {
      core::RunContext ctx = core::RunContext::with_budget_ms(request.budget_ms);
      std::ostringstream body;
      if (request.race) {
        std::vector<engine::RaceEntry> entries;
        for (const std::string& name : request.solvers) {
          entries.push_back({name, 0.0});
        }
        engine::RaceOptions options;
        options.threads = defaults.threads;
        options.accept_gap = request.accept_gap;
        s = log.begin(id, "engine.race", root);
        const engine::RaceReport report =
            engine::race(registry, request.instance, entries, ctx, options);
        log.end(s);
        out->race_cancelled += report.cancelled;
        s = log.begin(id, "engine.render", root);
        engine::write_race_json(body, request.instance, report);
        log.end(s);
      } else {
        s = log.begin(id, "core.selection", root);
        const std::vector<const core::Solver*> plan =
            registry.selection(request.instance, request.solvers, ctx);
        log.end(s);
        // The cells fan out as the daemon's do: the same parallel_for call
        // with its default thread count and options (nothing cancels a
        // replayed request, so no drain handler). Each cell times itself
        // into its own slot; the spans are recorded afterwards.
        std::vector<TimedCell> cells(plan.size());
        engine::ParallelOptions parallel_options;
        parallel_options.cancel = ctx.cancel_token();
        parallel_options.eager_dispatch = true;
        s = log.begin(id, "core.cells", root);
        engine::parallel_for(
            defaults.threads, plan.size(),
            [&](std::size_t i) {
              cells[i] = run_timed_cell(registry, *plan[i], request.instance,
                                        ctx.restarted());
            },
            parallel_options);
        log.end(s);
        engine::RunReport report;
        report.instance = request.instance;
        for (std::size_t i = 0; i < plan.size(); ++i) {
          record_cell(log, id, s, *plan[i], cells[i]);
          report.solutions.push_back(std::move(cells[i].sol));
        }
        engine::append_unknown_solver_rows(registry, request.solvers, report);
        engine::RunOptions options;
        options.budget_ms = request.budget_ms;
        s = log.begin(id, "engine.lower_bound", root);
        report.lower_bound = engine::derive_lower_bound(
            report.instance, report.solutions, options);
        log.end(s);
        for (const core::Solution& sol : report.solutions) {
          out->rows += 1.0;
          if (sol.timed_out) out->timed_out_rows += 1.0;
        }
        s = log.begin(id, "engine.render", root);
        engine::write_json(body, report);
        log.end(s);
      }
      reply.payload = body.str();
      s = log.begin(id, "service.cache_insert", root);
      cache.insert(key, {reply.payload, 0});
      log.end(s);
    }

    s = log.begin(id, "service.frame", root);
    std::ostringstream reply_wire;
    svc::write_frame(reply_wire, reply);
    std::istringstream reply_in(reply_wire.str());
    svc::Frame echoed;
    const bool reply_framed = svc::read_frame(reply_in, &echoed, &error);
    log.end(s);
    log.end(root);

    const Verdict v = check_response(pooled, echoed);
    if (!reply_framed || !v.failure.empty()) {
      out->ledger.fail("replay: " + (reply_framed ? v.failure : error));
    }
  }
  out->pool_after = pool_counters();
  out->cache = cache.stats();
}

// ----------------------------------------------------------------- phases

double hit_ratio(double hits, double misses) {
  return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

/// What the daemons of a run showed: each one's spawn-to-first-answer
/// time, and the largest peak resident set.
struct DaemonFigures {
  std::vector<double> setup_s;
  double peak_rss_mb = 0.0;
};

/// Starts and kills `probes` fresh daemons, adding their set-up times.
bool probe_setup(const RunArgs& args, int probes, DaemonFigures* daemons,
                 std::string* error) {
  for (int i = 0; i < probes; ++i) {
    Daemon daemon(args.abtd, socket_path(args, "setup"));
    if (!daemon.wait_ready(10.0, error)) return false;
    daemons->setup_s.push_back(daemon.ready_s());
    daemon.stop(false);
  }
  return true;
}

void print_info(const RunArgs& args, const LoopResult& open,
                std::uint64_t requests) {
  std::cout << "# " << args.workload << " seed " << args.seed
            << ": open loop " << requests << " requests at "
            << shape_of(args).open_rate << " req/s, "
            << open.samples.size() << " latency samples ("
            << open.latencies(true).size() << " without budget), lag p99 "
            << percentile(open.lags(), 0.99) << " ms\n";
}

/// Closed-loop throughput is counted in windows of this length.
constexpr double kClosedWindowS = 0.5;

/// Latency figures of one loop phase.
struct LatencyFigures {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double short_mean_ms = 0.0;
  double short_p99_ms = 0.0;
};

LatencyFigures latency_figures(const std::vector<Sample>& samples) {
  std::vector<double> all;
  std::vector<double> short_only;
  for (const Sample& sample : samples) {
    all.push_back(sample.latency_ms);
    if (sample.short_request) short_only.push_back(sample.latency_ms);
  }
  LatencyFigures out;
  out.p50_ms = percentile(all, 0.50);
  out.p95_ms = percentile(all, 0.95);
  out.p99_ms = percentile(all, 0.99);
  out.short_mean_ms = mean(short_only);
  out.short_p99_ms = percentile(short_only, 0.99);
  return out;
}

/// Each figure's median over the rounds' figures.
LatencyFigures median_figures(const std::vector<LatencyFigures>& rounds) {
  auto over = [&](double LatencyFigures::*field) {
    std::vector<double> values;
    for (const LatencyFigures& f : rounds) values.push_back(f.*field);
    return median(values);
  };
  LatencyFigures out;
  out.p50_ms = over(&LatencyFigures::p50_ms);
  out.p95_ms = over(&LatencyFigures::p95_ms);
  out.p99_ms = over(&LatencyFigures::p99_ms);
  out.short_mean_ms = over(&LatencyFigures::short_mean_ms);
  out.short_p99_ms = over(&LatencyFigures::short_p99_ms);
  return out;
}

/// Appends the per-window rates (per second) of correct answers and of
/// verified rows of one closed-loop phase that started at `t0`.
void closed_windows(const LoopResult& closed, Clock::time_point t0,
                    double seconds, std::vector<double>* answers,
                    std::vector<double>* rows) {
  const auto windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / kClosedWindowS));
  const std::size_t first = answers->size();
  answers->resize(first + windows, 0.0);
  rows->resize(first + windows, 0.0);
  for (const auto& [when, verified] : closed.completions) {
    const auto w = static_cast<std::size_t>(
        std::chrono::duration<double>(when - t0).count() / kClosedWindowS);
    if (w >= windows) continue;  // finished after the deadline
    (*answers)[first + w] += 1.0 / kClosedWindowS;
    (*rows)[first + w] += verified / kClosedWindowS;
  }
}

/// Runs `phase` against a fresh daemon, then stops it gracefully. Every
/// cached replay that matches no computed response becomes a failure in
/// `out`. False when the daemon does not start.
bool daemon_phase(
    const RunArgs& args, const char* tag, LoopResult* out,
    DaemonFigures* daemons,
    const std::function<void(const svc::Address&, ReplayAudit&)>& phase) {
  Daemon daemon(args.abtd, socket_path(args, tag));
  std::string error;
  if (!daemon.wait_ready(10.0, &error)) {
    std::cerr << "perfbench: " << error << "\n";
    return false;
  }
  daemons->setup_s.push_back(daemon.ready_s());
  ReplayAudit audit;
  phase(daemon.address(), audit);
  daemons->peak_rss_mb = std::max(daemons->peak_rss_mb, daemon.peak_rss());
  daemon.stop(true);
  for (long long i = audit.mismatches(); i > 0; --i) {
    out->ledger.fail("cached replay not byte-identical");
  }
  return true;
}

/// A timed run is this many rounds of a closed-loop phase, each on a fresh
/// daemon; the latency figures are medians over the rounds' figures, so a
/// slow stretch of the host moves a few rounds, not the run.
constexpr int kRounds = 10;
/// Set-up probes ahead of each round. With the round's daemon they spread
/// setup_s's samples over the whole run, so one slow stretch of the host
/// moves a few samples, not the median.
constexpr int kSetupProbesPerRound = 4;

int timed_run(const RunArgs& args, const Inputs& in) {
  EndToEnd e2e;
  DaemonFigures daemons;
  std::string error;
  const int rounds = args.smoke ? 1 : kRounds;
  const double round_s = args.seconds / rounds;

  LoopResult closed;
  std::vector<double> answers_per_s;
  std::vector<double> rows_per_s;
  std::vector<LatencyFigures> round_figures;
  for (int r = 0; r < rounds; ++r) {
    if (!probe_setup(args, args.smoke ? 2 : kSetupProbesPerRound, &daemons,
                     &error)) {
      std::cerr << "perfbench: " << error << "\n";
      return 1;
    }
    LoopResult part;
    Clock::time_point t0;
    if (!daemon_phase(args, "closed", &part, &daemons,
                      [&](const svc::Address& address, ReplayAudit& audit) {
                        t0 = closed_loop(in, address, round_s, audit, &part);
                      })) {
      return 1;
    }
    closed_windows(part, t0, round_s, &answers_per_s, &rows_per_s);
    round_figures.push_back(latency_figures(part.samples));
    closed.merge(std::move(part));
  }

  e2e.setup_s = median(daemons.setup_s);
  e2e.peak_rss_mb = daemons.peak_rss_mb;
  const LatencyFigures figures = median_figures(round_figures);
  e2e.latency_p50_ms = figures.p50_ms;
  e2e.latency_p95_ms = figures.p95_ms;
  e2e.short_latency_mean_ms = figures.short_mean_ms;
  e2e.throughput_rps = median(answers_per_s);
  e2e.cells_per_s = median(rows_per_s);
  e2e.ratio_mean =
      closed.ratio_count > 0 ? closed.ratio_sum / closed.ratio_count : 0.0;

  std::cout << "# " << args.workload << " seed " << args.seed << ": "
            << rounds << " rounds of a closed loop of " << kMaxInFlight
            << " clients, each on a fresh daemon: " << closed.samples.size()
            << " requests (" << closed.latencies(true).size()
            << " without budget) in " << args.seconds
            << " s; latency figures are medians over the rounds, throughput "
            << "over " << answers_per_s.size() << " windows of "
            << kClosedWindowS << " s\n";
  std::cout << "# p99 (median over rounds, not a benchmark metric): "
            << figures.p99_ms << " ms, " << figures.short_p99_ms
            << " ms without budget\n";
  closed.ledger.report();
  Metrics metrics;
  emit_end_to_end(metrics, e2e);
  metrics.print_result(closed.ledger.failed() == 0,
                       closed.ledger.attempted(), closed.ledger.failed());
  return 0;
}

int traced_run(const RunArgs& args, const core::SolverRegistry& registry,
               const Inputs& in) {
  const double phase_s = args.seconds / 2.0;
  const auto requests =
      static_cast<std::uint64_t>(std::ceil(in.shape.open_rate * phase_s));
  Replay rep;
  replay(registry, in, requests, &rep);

  LoopResult open;
  std::optional<Json> final_stats;
  DaemonFigures daemons;
  std::string error;
  if (!daemon_phase(args, "trace", &open, &daemons,
                    [&](const svc::Address& address, ReplayAudit& audit) {
                      open = open_loop(in, address,
                                       open_schedule(in, requests, 0.05),
                                       audit);
                      svc::Frame stats;
                      stats.type = svc::FrameType::kStats;
                      const auto exchange =
                          svc::client_roundtrip(address, stats, &error);
                      if (exchange.has_value()) {
                        final_stats = parse_json(exchange->final.payload);
                      }
                    })) {
    return 1;
  }
  if (!final_stats.has_value()) {
    std::cerr << "perfbench: final stats failed: " << error << "\n";
    return 1;
  }
  // latency_p50_ms comes from the closed loop: one phase of it is the
  // reference the layers and the residual are held against.
  LoopResult closed;
  if (!daemon_phase(args, "closed", &closed, &daemons,
                    [&](const svc::Address& address, ReplayAudit& audit) {
                      (void)closed_loop(in, address, phase_s / 2.0, audit,
                                        &closed);
                    })) {
    return 1;
  }
  Ledger ledger = rep.ledger;
  ledger.merge(open.ledger);
  ledger.merge(closed.ledger);

  SpanLog& log = rep.log;
  for (const Sample& sample : open.samples) {
    log.record(sample.position, "loadgen.request", sample.due, sample.done);
  }

  LayerReport l;
  l.frame_us = log.per_request_us("service.frame");
  l.parse_us = log.per_request_us("service.parse");
  l.cache_key_us = log.per_request_us("service.cache_key");
  l.cache_lookup_us = log.per_request_us("service.cache_lookup");
  l.cache_insert_us = log.per_request_us("service.cache_insert");
  l.selection_us = log.per_request_us("core.selection");
  l.solve_us = log.per_request_us("core.solve");
  l.check_us = log.per_request_us("core.check");
  l.lower_bound_us = log.per_request_us("engine.lower_bound");
  l.render_us = log.per_request_us("engine.render");
  l.race_us = log.per_request_us("engine.race");
  l.solve_by_solver = log.per_detail_us("core.solve");
  l.make_scenario_us = in.make_scenario_us;
  l.cache_hit_ratio =
      hit_ratio(static_cast<double>(rep.cache.hits),
                static_cast<double>(rep.cache.misses));
  l.cache_evictions = static_cast<double>(rep.cache.evictions);
  const Json* daemon_cache = final_stats->find("cache");
  if (daemon_cache != nullptr) {
    l.daemon_cache_hit_ratio =
        hit_ratio(daemon_cache->num("hits"), daemon_cache->num("misses"));
  }
  l.shed = final_stats->num("shed");
  l.shrunk = final_stats->num("shrunk");
  std::vector<double> depth;
  std::vector<double> in_flight;
  for (const StatsSample& sample : open.stats) {
    l.stats_rtt_us.push_back(sample.rtt_us);
    depth.push_back(sample.body.num("queue_depth"));
    in_flight.push_back(sample.body.num("in_flight"));
  }
  l.queue_depth_mean = mean(depth);
  l.in_flight_mean = mean(in_flight);
  l.timed_out_share = rep.rows > 0.0 ? rep.timed_out_rows / rep.rows : 0.0;
  l.race_cancelled = rep.race_cancelled;
  l.pool_cells = rep.pool_after.cells - rep.pool_before.cells;
  l.pool_chunks = rep.pool_after.chunks - rep.pool_before.chunks;
  l.pool_steals = rep.pool_after.steals - rep.pool_before.steals;
  l.lag_p99_ms = percentile(open.lags(), 0.99);
  l.latency_p99_ms = percentile(open.latencies(false), 0.99);
  l.short_latency_p99_ms = percentile(open.latencies(true), 0.99);
  l.samples = static_cast<double>(open.samples.size());

  // Layer p50s per request (0 where a request skipped the layer, e.g. the
  // solve of a cache hit) against the end-to-end p50 of the closed loop, as
  // the timed run defines latency_p50_ms. The layers tile a request;
  // core.cells is the wall time of the solver fan-out (its critical path),
  // with the core.solve and core.check spans of the cells inside it.
  const double e2e_p50_us = latency_figures(closed.samples).p50_ms * 1e3;
  double layer_sum_us = 0.0;
  for (const char* layer :
       {"service.frame", "service.parse", "service.cache_key",
        "service.cache_lookup", "service.cache_insert", "core.selection",
        "core.cells", "engine.lower_bound", "engine.render", "engine.race"}) {
    layer_sum_us += percentile(log.per_request_us_all(layer, requests), 0.50);
  }
  const double in_process_p50_us = percentile(log.per_span_us("replay.request"), 0.50);
  l.residual_us = e2e_p50_us - in_process_p50_us;
  l.coverage = e2e_p50_us > 0.0 ? layer_sum_us / e2e_p50_us : 0.0;
  l.spans = static_cast<double>(log.spans().size());

  const std::string trace_path = args.work_dir + "/trace-" + args.workload +
                                 "-seed" + std::to_string(args.seed) + ".jsonl";
  if (!log.write_jsonl(trace_path)) {
    std::cerr << "perfbench: cannot write " << trace_path << "\n";
    return 1;
  }
  print_info(args, open, requests);
  std::cout << "# trace: " << log.spans().size() << " spans in " << trace_path
            << "; layer p50 sum " << layer_sum_us << " us + residual "
            << l.residual_us << " us vs end-to-end p50 " << e2e_p50_us
            << " us\n";
  ledger.report();
  Metrics metrics;
  emit_layers(metrics, l, registry);
  metrics.print_result(ledger.failed() == 0, ledger.attempted(),
                       ledger.failed());
  return 0;
}

}  // namespace

bool is_service_workload(const std::string& name) {
  return name == "svc-light" || name == "svc-mixed";
}

int run_service_workload(const RunArgs& args) {
  const core::SolverRegistry& registry = engine::shared_registry();
  Inputs in;
  std::string error;
  const Clock::time_point t0 = Clock::now();
  if (!generate(registry, args, &in, &error)) {
    std::cerr << "perfbench: input generation failed: " << error << "\n";
    return 1;
  }
  std::cout << "# inputs: " << in.pool.size()
            << " distinct requests with in-process references, generated in "
            << ms_between(t0, Clock::now()) << " ms\n";
  return args.trace ? traced_run(args, registry, in) : timed_run(args, in);
}

}  // namespace perfbench
