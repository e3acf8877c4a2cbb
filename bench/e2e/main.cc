// explainti_e2e: the end-to-end serving benchmark binary.
//
//   explainti_e2e --workload <name> --seed <n> [--seconds <s>]
//                 [--trace <file>] [--out <json>] [--tmp <dir>]
//                 [--smoke] [--self-test]
//
// Phases, identical for every workload:
//   1. fixture (untimed): corpus, seeded untrained weights saved to disk,
//      the distinct request set and its tape-path reference answers;
//   2. set-up (setup_s): LoadReplicaForSwap + InferenceServer constructor,
//      repeated kSetupReps times, median reported;
//   3. warm-up (untimed): every distinct request kWarmupReplays times,
//      on a pool of kServingThreads, as everything after it;
//   4. light and heavy: open-loop Poisson at the workload's fixed rates,
//      each request timed from its due time;
//   5. throughput: closed loop with kInFlight requests outstanding.
//      Phases 4 and 5 run in rounds of one light, one heavy and one
//      closed-loop window, for --seconds in total;
//   6. with --trace: the light and heavy windows again with spans
//      recorded, then the single-thread layer probes.
// Every OK response is compared bit-exactly with its reference; any
// mismatch makes the run exit non-zero.

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>

#include "e2e.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace explainti::e2e {
namespace {

// Set-up repeats kSetupReps times, or only kMinSetupReps once the reps
// have taken kSetupBudgetS (surrogate distillation makes one qa_tenants
// set-up cost seconds).
constexpr int kSetupReps = 5;
constexpr int kMinSetupReps = 3;
constexpr double kSetupBudgetS = 5.0;
constexpr int kWarmupReplays = 3;
constexpr int kInFlight = 32;
constexpr int kProbePasses = 3;
// Length of one load window. Light, heavy and closed-loop windows take
// turns, and each metric is the median over its windows, so a stall of
// the shared host spoils a few windows of every kind rather than one
// whole phase.
constexpr int64_t kWindowNs = 1'000'000'000;
// Pool participants from the warm-up on. With one, each of the server's
// two workers runs its batches inline on its own core, and a rollout
// loads its replica on a third, so the generator, the workers and the
// rollout thread fit a 4-core host. With the default pool every forward,
// and every rollout's encode, is one region across all cores: regions
// queue behind each other, so a rollout stalls serving, and a single
// descheduled thread of a shared host stalls the whole region.
constexpr int kServingThreads = 1;
constexpr double kSmokeSeconds = 3.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  std::string trace;
  std::string out;
  std::string tmp;
  bool smoke = false;
  bool self_test = false;
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "explainti_e2e: " << error
            << "\nusage: explainti_e2e --workload <name> --seed <n> "
               "[--seconds <s>] [--trace <file>] [--out <json>] "
               "[--tmp <dir>] [--smoke] [--self-test]\nworkloads:";
  for (const WorkloadSpec& w : AllWorkloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = value();
    } else if (flag == "--out") {
      a.out = value();
    } else if (flag == "--tmp") {
      a.tmp = value();
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--self-test") {
      a.self_test = true;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (a.smoke) a.seconds = kSmokeSeconds;
  if (!(a.seconds > 0.0)) Usage("--seconds must be positive");
  if (a.tmp.empty()) {
    a.tmp = "e2e_tmp_" + a.workload + "_" + std::to_string(::getpid());
  }
  return a;
}

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

/// The replica currently served plus the rollout bookkeeping. The
/// rollout thread alternates weights B, A, B, ... half-way through every
/// window after Start() (so each window holds one rollout); generation g
/// then serves weights (g - 1) % 2.
class Rollout {
 public:
  Rollout(Fixture* f, serve::InferenceServer* server,
          std::unique_ptr<core::ExplainTiModel>* live)
      : f_(f), server_(server), live_(live) {}

  ~Rollout() { Stop(); }
  Rollout(const Rollout&) = delete;
  Rollout& operator=(const Rollout&) = delete;

  /// Starts rolling out; call as a phase starts.
  void Start() {
    stop_ = false;
    const int64_t origin = NowNs();
    thread_ = std::thread([this, origin] { Loop(origin); });
  }

  void Stop() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  /// One rollout to the next weight set: load aside, swap, retire.
  void SwapOnce() {
    const int64_t t0 = NowNs();
    auto replica = core::LoadReplicaForSwap(
        f_->config, f_->corpus,
        f_->weight_paths[static_cast<size_t>(next_) % f_->weight_paths.size()]);
    CHECK(replica.ok()) << replica.status().ToString();
    const int64_t t1 = NowNs();
    const util::Status swapped = server_->SwapSession((*replica)->session());
    const int64_t t2 = NowNs();
    CHECK(swapped.ok()) << swapped.ToString();
    // The old generation has drained; its model can go.
    *live_ = std::move(replica).value();
    rollout_s.push_back(Seconds(t0, t2));
    swap_call_us.push_back(static_cast<double>(t2 - t1) / 1e3);
    next_ ^= 1;
  }

  std::vector<double> rollout_s;     ///< Load start -> swap return.
  std::vector<double> swap_call_us;  ///< SwapSession alone.

 private:
  void Loop(int64_t origin_ns) {
    for (int64_t due = origin_ns + kWindowNs / 2;; due += kWindowNs) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        const auto until = std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due));
        if (cv_.wait_until(lock, until, [this] { return stop_; })) return;
      }
      SwapOnce();
    }
  }

  Fixture* f_;
  serve::InferenceServer* server_;
  std::unique_ptr<core::ExplainTiModel>* live_;
  int next_ = 1;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // Guarded by mu_.
  std::thread thread_;
};

struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;
  void Add(const PhaseResult& r, bool counts_as_load) {
    mismatches += r.mismatches;
    if (!counts_as_load) return;
    attempted += r.attempted;
    failed += r.refused + r.not_ok;
  }
};

std::string Json(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void WriteMetrics(std::ostream& os, const MetricMap& m) {
  os << "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << Json(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  os << "}";
}

void PrintMetrics(const char* kind, const MetricMap& m) {
  for (const auto& [name, metric] : m) {
    std::printf("%s %s %.6g %s\n", kind, name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

std::string HostJson() {
#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif
#ifndef E2E_BUILD_FLAGS
#define E2E_BUILD_FLAGS ""
#endif
  std::ostringstream os;
  os << "{\"hardware_threads\": "
     << std::max(1u, std::thread::hardware_concurrency())
     << ", \"build_type\": \"" << E2E_BUILD_TYPE << "\", \"build_flags\": \""
     << E2E_BUILD_FLAGS << "\", \"compiler\": \"" << __VERSION__ << "\"}";
  return os.str();
}

/// Percentile metric plus its sample count in the diagnostics.
void AddPercentile(const std::string& name, const std::vector<double>& v,
                   double q, const char* unit, MetricMap* out,
                   MetricMap* diag) {
  (*out)[name] = {Percentile(v, q), unit};
  (*diag)[name + ".samples"] = {static_cast<double>(v.size()), "count"};
}

/// Light, heavy and closed-loop windows, each one PhaseResult.
struct Windows {
  std::vector<PhaseResult> light, heavy, closed;
};

/// Median over windows of the q-percentile latency of each window.
double WindowedPercentile(const std::vector<PhaseResult>& windows, double q) {
  std::vector<double> per_window;
  for (const PhaseResult& w : windows) {
    per_window.push_back(Percentile(w.latency_us, q));
  }
  return Median(per_window);
}

/// End-to-end latency metric, with its sample count over all windows in
/// the diagnostics.
void AddLatency(const std::string& name, const std::vector<PhaseResult>& windows,
                double q, MetricMap* e2e, MetricMap* diag) {
  (*e2e)[name] = {WindowedPercentile(windows, q), "us"};
  (*diag)[name + ".samples"] = {
      static_cast<double>(Pool(windows).latency_us.size()), "count"};
}

/// Serve-layer metrics of the traced light and heavy windows.
void ServeLayerMetrics(const Windows& traced, MetricMap* layers,
                       MetricMap* diag) {
  std::vector<PhaseResult> open = traced.light;
  open.insert(open.end(), traced.heavy.begin(), traced.heavy.end());
  const PhaseResult all = Pool(open);
  const double attempted = static_cast<double>(all.attempted);
  const double ok = static_cast<double>(all.ok);
  AddPercentile("serve.queue_wait_us.p50", all.queue_wait_us, 0.5, "us",
                layers, diag);
  AddPercentile("serve.queue_wait_us.p90", all.queue_wait_us, 0.9, "us",
                layers, diag);
  AddPercentile("serve.service_us.p50", all.service_us, 0.5, "us", layers,
                diag);
  AddPercentile("serve.service_us.p90", all.service_us, 0.9, "us", layers,
                diag);
  AddPercentile("serve.admit_us.p50", all.admit_us, 0.5, "us", layers, diag);
  AddPercentile("serve.admit_us.p99", all.admit_us, 0.99, "us", layers, diag);
  AddPercentile("serve.generator_late_us.p99", all.late_us, 0.99, "us",
                layers, diag);
  (*layers)["serve.batch_size.mean"] = {Mean(all.batch_size), "count"};
  (*layers)["serve.cache_hit_frac"] = {
      static_cast<double>(all.cache_hits) / std::max(1.0, ok), "ratio"};
  (*layers)["serve.rejected_frac"] = {
      static_cast<double>(all.refused) / std::max(1.0, attempted), "ratio"};
  (*layers)["serve.expired_frac"] = {
      static_cast<double>(all.expired) / std::max(1.0, attempted), "ratio"};
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Usage("unknown workload " + args.workload);
  const bool tracing = !args.trace.empty();

  MetricMap e2e;     // End-to-end, untraced run.
  MetricMap layers;  // Per-layer, traced run.
  MetricMap diag;    // Printed, never gated.
  Tally tally;

  // -- 1. Fixture --------------------------------------------------------
  const int64_t fixture_start = NowNs();
  std::unique_ptr<Fixture> f = BuildFixture(*spec, args.tmp);
  diag["fixture_s"] = {Seconds(fixture_start, NowNs()), "s"};
  diag["distinct_requests"] = {static_cast<double>(f->requests.size()),
                               "count"};
  const serve::ServerOptions options = f->ServerOptions();

  // -- 2. Set-up ----------------------------------------------------------
  std::vector<double> setup_s, load_s, construct_s;
  std::unique_ptr<core::ExplainTiModel> live;
  std::unique_ptr<serve::InferenceServer> server;
  const int64_t setup_start = NowNs();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep >= kMinSetupReps && Seconds(setup_start, NowNs()) > kSetupBudgetS) {
      break;
    }
    server.reset();
    live.reset();
    const int64_t t0 = NowNs();
    auto replica =
        core::LoadReplicaForSwap(f->config, f->corpus, f->weight_paths[0]);
    CHECK(replica.ok()) << replica.status().ToString();
    const int64_t t1 = NowNs();
    live = std::move(replica).value();
    server = std::make_unique<serve::InferenceServer>(live->session(), options);
    const int64_t t2 = NowNs();
    setup_s.push_back(Seconds(t0, t2));
    load_s.push_back(Seconds(t0, t1));
    construct_s.push_back(Seconds(t1, t2));
  }
  e2e["setup_s"] = {Median(setup_s), "s"};
  diag["setup_reps"] = {static_cast<double>(setup_s.size()), "count"};
  layers["serve.construct_s"] = {Median(construct_s), "s"};
  layers["core.replica_load_s"] = {Median(load_s), "s"};
  if (spec->traffic == Traffic::kQaTenants) FillQaReferences(*server, f.get());
  if (args.self_test) CorruptReference(f->requests[0], &f->refs[0][0]);
  // Set-up above ran on the default pool; everything below, rollouts
  // and layer probes included, runs on kServingThreads.
  util::SetGlobalThreadCount(kServingThreads);

  LoadContext ctx;
  ctx.server = server.get();
  ctx.fixture = f.get();
  util::Rng seeds(args.seed);
  auto next_seed = [&seeds] { return seeds.Next(); };

  // -- 3. Warm-up ---------------------------------------------------------
  {
    std::vector<int> order;
    for (int r = 0; r < kWarmupReplays; ++r) {
      for (size_t i = 0; i < f->requests.size(); ++i) {
        order.push_back(static_cast<int>(i));
      }
    }
    util::Rng shuffle(next_seed());
    shuffle.Shuffle(order);
    const int64_t t0 = NowNs();
    const PhaseResult warm = RunClosedLoop(ctx, kInFlight, 0.0, 0, &order);
    tally.Add(warm, /*counts_as_load=*/false);
    diag["warmup_s"] = {Seconds(t0, NowNs()), "s"};
    diag["warmup_covered"] = {static_cast<double>(warm.distinct_ok), "count"};
    diag["warmup_failed"] = {static_cast<double>(warm.refused + warm.not_ok),
                             "count"};
  }

  // -- 4/5. Light, heavy, throughput -------------------------------------
  // The three kinds of window take turns, one window each per round.
  const double window_s = static_cast<double>(kWindowNs) / 1e9;
  const int rounds = std::max(
      1, static_cast<int>(std::lround(args.seconds / (3 * window_s))));
  Rollout rollout(f.get(), server.get(), &live);
  auto window = [&](auto run) {
    if (spec->rollout) rollout.Start();
    PhaseResult r = run();
    rollout.Stop();
    ctx.first_trace_id += static_cast<uint64_t>(r.attempted);
    return r;
  };
  auto run_windows = [&](bool closed_loop) {
    Windows w;
    for (int round = 0; round < rounds; ++round) {
      w.light.push_back(window([&] {
        return RunOpenLoop(ctx, spec->light_rps, window_s, next_seed());
      }));
      w.heavy.push_back(window([&] {
        return RunOpenLoop(ctx, spec->heavy_rps, window_s, next_seed());
      }));
      if (!closed_loop) continue;
      w.closed.push_back(window([&] {
        return RunClosedLoop(ctx, kInFlight, window_s, next_seed(), nullptr);
      }));
    }
    return w;
  };
  const Windows load = run_windows(/*closed_loop=*/true);
  const PhaseResult light = Pool(load.light);
  const PhaseResult heavy = Pool(load.heavy);
  for (const PhaseResult& r : {light, heavy, Pool(load.closed)}) {
    tally.Add(r, true);
  }

  AddLatency("p50_us.light", load.light, 0.5, &e2e, &diag);
  AddLatency("p50_us.heavy", load.heavy, 0.5, &e2e, &diag);
  AddLatency("p90_us.light", load.light, 0.9, &diag, &diag);
  AddLatency("p90_us.heavy", load.heavy, 0.9, &diag, &diag);
  AddPercentile("p99_us.light", light.latency_us, 0.99, "us", &diag, &diag);
  AddPercentile("p99_us.heavy", heavy.latency_us, 0.99, "us", &diag, &diag);
  std::vector<double> closed_rps;
  for (const PhaseResult& w : load.closed) {
    closed_rps.push_back(static_cast<double>(w.ok_in_time) / w.seconds);
  }
  e2e["throughput_rps"] = {Median(closed_rps), "req/s"};
  diag["windows_per_kind"] = {static_cast<double>(rounds), "count"};
  e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};
  diag["rollouts"] = {static_cast<double>(rollout.rollout_s.size()), "count"};
  if (!rollout.rollout_s.empty()) {
    diag["rollout_s"] = {Median(rollout.rollout_s), "s"};
  }
  diag["failed_frac"] = {static_cast<double>(tally.failed) /
                             static_cast<double>(std::max<int64_t>(1, tally.attempted)),
                         "ratio"};
  diag["offered_rps.light"] = {static_cast<double>(light.attempted) /
                                   light.seconds,
                               "req/s"};
  diag["offered_rps.heavy"] = {static_cast<double>(heavy.attempted) /
                                   heavy.seconds,
                               "req/s"};
  diag["cache_hit_frac.light_heavy"] = {
      static_cast<double>(light.cache_hits + heavy.cache_hits) /
          static_cast<double>(std::max<int64_t>(1, light.ok + heavy.ok)),
      "ratio"};
  diag["generator_late_us.p99"] = {Percentile(heavy.late_us, 0.99), "us"};

  // -- 6. Traced run -------------------------------------------------------
  SpanLog trace;
  if (tracing) {
    ctx.trace = &trace;
    const size_t rollouts_before = rollout.rollout_s.size();
    ctx.first_trace_id = 1;
    const Windows traced = run_windows(/*closed_loop=*/false);
    const PhaseResult tlight = Pool(traced.light);
    const PhaseResult theavy = Pool(traced.heavy);
    tally.Add(tlight, false);
    tally.Add(theavy, false);
    ServeLayerMetrics(traced, &layers, &diag);
    // Workloads without rollouts time one on the idle server.
    if (rollout.rollout_s.size() == rollouts_before) rollout.SwapOnce();
    const auto since = [rollouts_before](const std::vector<double>& v) {
      return std::vector<double>(v.begin() + static_cast<long>(rollouts_before),
                                 v.end());
    };
    layers["serve.swap_us.p50"] = {Median(since(rollout.swap_call_us)), "us"};
    layers["serve.rollout_s"] = {Median(since(rollout.rollout_s)), "s"};
    diag["trace_overhead_us.p50_light"] = {
        WindowedPercentile(traced.light, 0.5) - e2e["p50_us.light"].value,
        "us"};
    diag["trace_overhead_us.p50_heavy"] = {
        WindowedPercentile(traced.heavy, 0.5) - e2e["p50_us.heavy"].value,
        "us"};
    diag["traced_requests"] = {
        static_cast<double>(tlight.attempted + theavy.attempted), "count"};

    static_assert(kServingThreads == 1, "the layer probes run single-thread");
    RunLayerProbes(*f, live->session(), *server, kProbePasses, &trace,
                   &layers);
  }
  server->Shutdown();

  // -- Report ---------------------------------------------------------------
  const bool covered =
      diag["warmup_covered"].value == static_cast<double>(f->requests.size());
  const bool correct = tally.mismatches == 0 && covered;
  std::printf("workload %s seed %llu seconds %g\n", spec->name,
              static_cast<unsigned long long>(args.seed), args.seconds);
  PrintMetrics("metric", e2e);
  if (tracing) PrintMetrics("layer", layers);
  PrintMetrics("diag", diag);
  if (tracing) {
    for (const auto& [name, self] : trace.SelfTimesUs()) {
      std::printf("self %s %.6g us over %lld spans\n", name.c_str(),
                  self.first, static_cast<long long>(self.second));
    }
    CHECK(trace.WriteJsonLines(args.trace)) << "cannot write " << args.trace;
  }
  std::printf("attempted %lld failed %lld mismatches %lld correct %s\n",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed),
              static_cast<long long>(tally.mismatches),
              correct ? "true" : "false");

  if (!args.out.empty()) {
    std::ofstream json(args.out);
    json << "{\"workload\": \"" << spec->name << "\", \"seed\": " << args.seed
         << ", \"seconds\": " << Json(args.seconds)
         << ", \"host\": " << HostJson()
         << ", \"correct\": " << (correct ? "true" : "false")
         << ", \"mismatches\": " << tally.mismatches
         << ", \"attempted\": " << tally.attempted
         << ", \"failed\": " << tally.failed << ", \"metrics\": ";
    WriteMetrics(json, e2e);
    json << ", \"layers\": ";
    WriteMetrics(json, layers);
    json << ", \"diagnostics\": ";
    WriteMetrics(json, diag);
    json << "}\n";
    CHECK(json.good()) << "cannot write " << args.out;
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace explainti::e2e

int main(int argc, char** argv) {
  const explainti::e2e::Args args = explainti::e2e::ParseArgs(argc, argv);
  const int code = explainti::e2e::Run(args);
  std::filesystem::remove_all(args.tmp);
  return code;
}
