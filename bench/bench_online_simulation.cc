// Online serving simulation (ROADMAP north star; paper Section V /
// Table 5 efficiency study): drives the dynamic micro-batching
// InferenceServer with an open-loop Poisson arrival process at several
// offered-load points and compares it against the sequential
// one-request-at-a-time baseline on the same frozen session. Emits
// BENCH_serving.json (throughput, p50/p99 end-to-end latency, reject
// rate, queue high-water) — uploaded by the CI release job next to
// BENCH_parallel.json / BENCH_inference.json.
//
// The arrival schedule is deterministic (seeded exponential
// inter-arrival draws), so runs are comparable; wall-clock results
// still vary with machine load. On hosts with >= 4 hardware threads the
// run asserts that batched throughput at the highest offered load is at
// least 1.5x the sequential baseline; on smaller hosts (where batching
// has no cores to fan out to) it only reports.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/explain_ti_model.h"
#include "core/inference_session.h"
#include "data/wiki_generator.h"
#include "serve/server.h"
#include "serve/tenant.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace explainti;

namespace {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

struct LoadPointResult {
  double offered_rps = 0.0;
  int requests = 0;
  int accepted = 0;
  int rejected = 0;
  int expired = 0;
  double throughput_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  int64_t queue_high_water = 0;
  double mean_batch_size = 0.0;
};

// Drives one open-loop run: requests are submitted on the Poisson
// schedule regardless of completions (the open-loop property that
// exposes queueing collapse), then the server drains.
LoadPointResult RunLoadPoint(const core::InferenceSession& session,
                             const std::vector<int>& ids, int num_requests,
                             double offered_rps, uint64_t seed,
                             const serve::ServerOptions& options) {
  serve::InferenceServer server(session, options);

  std::vector<double> e2e_us(static_cast<size_t>(num_requests), -1.0);
  std::atomic<int> accepted{0}, rejected{0}, expired{0};
  std::atomic<int64_t> last_done_us{0};

  util::Rng rng(seed);
  // Pre-draw the whole arrival schedule so submission-time work is
  // minimal.
  std::vector<int64_t> offsets_us(static_cast<size_t>(num_requests));
  double t_us = 0.0;
  for (int i = 0; i < num_requests; ++i) {
    // Exponential inter-arrival with mean 1/lambda.
    t_us += -std::log(1.0 - rng.Uniform()) * 1e6 / offered_rps;
    offsets_us[static_cast<size_t>(i)] = static_cast<int64_t>(t_us);
  }

  const int64_t start_us = util::MonotonicNowUs();
  const auto start_tp = std::chrono::steady_clock::now();
  for (int i = 0; i < num_requests; ++i) {
    std::this_thread::sleep_until(
        start_tp + std::chrono::microseconds(offsets_us[static_cast<size_t>(i)]));
    serve::ServeRequest request;
    request.method = serve::ServeMethod::kPredict;
    request.task = core::TaskKind::kType;
    request.sample_id = ids[static_cast<size_t>(i) % ids.size()];
    request.trace_id = static_cast<uint64_t>(i);
    request.deadline_us = util::DeadlineAfterUs(2'000'000);
    double* slot = &e2e_us[static_cast<size_t>(i)];
    const util::Status admitted = server.Submit(
        request, [slot, &expired, &last_done_us](serve::ServeResponse&& r) {
          if (r.status.ok()) {
            *slot = static_cast<double>(r.total_us);
            int64_t now = util::MonotonicNowUs();
            int64_t prev = last_done_us.load(std::memory_order_relaxed);
            while (prev < now && !last_done_us.compare_exchange_weak(
                                     prev, now, std::memory_order_relaxed)) {
            }
          } else {
            expired.fetch_add(1, std::memory_order_relaxed);
          }
        });
    if (admitted.ok()) {
      accepted.fetch_add(1, std::memory_order_relaxed);
    } else {
      rejected.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const int64_t high_water = server.batcher().high_water();
  server.Shutdown();  // Graceful drain: every accepted request completes.

  LoadPointResult result;
  result.offered_rps = offered_rps;
  result.requests = num_requests;
  result.accepted = accepted.load();
  result.rejected = rejected.load();
  result.expired = expired.load();
  result.queue_high_water = high_water;

  std::vector<double> completed;
  completed.reserve(e2e_us.size());
  for (double v : e2e_us) {
    if (v >= 0.0) completed.push_back(v);
  }
  const double span_s =
      static_cast<double>(last_done_us.load() - start_us) / 1e6;
  result.throughput_rps =
      span_s > 0.0 ? static_cast<double>(completed.size()) / span_s : 0.0;
  result.p50_us = Percentile(completed, 0.50);
  result.p99_us = Percentile(completed, 0.99);
  serve::Histogram* batch_hist = server.metrics().GetHistogram(
      "serve.batch_size", serve::Histogram::LinearBuckets(1, 1, 32));
  result.mean_batch_size = batch_hist->Mean();
  return result;
}

// ---------------------------------------------------------------------------
// Mixed-tenant overload phase.
//
// Three tenants share one server: an unlimited interactive tenant, a
// batch tenant one class down, and a background tenant capped at half
// the sequential capacity with a small burst. Inputs follow a Zipf
// popularity curve so the (enabled) response cache sees realistic reuse.
// Run at 1x and 2x the sequential capacity, the phase demonstrates the
// overload contract: the interactive tenant's p99 stays flat while the
// background tenant absorbs the shedding (quota rejects + preemption).

constexpr const char* kTenantNames[3] = {"interactive", "batch",
                                         "background"};

struct TenantPointStats {
  int submitted = 0;
  int accepted = 0;   ///< Submit returned OK (includes inline cache hits).
  int rejected = 0;   ///< Refused at admission (quota or full queue).
  int shed = 0;       ///< Admitted but failed later (preempted / expired).
  int cache_hits = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

struct MixedTenantResult {
  double load_factor = 0.0;
  double offered_rps = 0.0;
  int64_t queue_high_water = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  TenantPointStats tenants[3];
};

MixedTenantResult RunMixedTenantPoint(const core::InferenceSession& session,
                                      const std::vector<int>& ids,
                                      int num_requests, double offered_rps,
                                      double load_factor, uint64_t seed,
                                      serve::ServerOptions options,
                                      double sequential_rps) {
  serve::TenantRegistry tenants;
  int tenant_ids[3];
  {
    serve::TenantOptions interactive;
    interactive.name = kTenantNames[0];
    interactive.priority = serve::Priority::kInteractive;
    tenant_ids[0] = tenants.Register(interactive);
    serve::TenantOptions batch;
    batch.name = kTenantNames[1];
    batch.priority = serve::Priority::kBatch;
    tenant_ids[1] = tenants.Register(batch);
    serve::TenantOptions background;
    background.name = kTenantNames[2];
    background.priority = serve::Priority::kBackground;
    // Half the sequential capacity sustained, with a burst small enough
    // that the bucket (not the burst) governs the run: at 1x offered
    // load the background share (~0.3x) fits its quota; at 2x (~0.6x)
    // it must be shed.
    background.quota_rps = 0.5 * sequential_rps;
    background.burst = 4.0;
    tenant_ids[2] = tenants.Register(background);
  }
  options.tenants = &tenants;
  options.cache.enabled = true;
  serve::InferenceServer server(session, options);

  // Pre-draw the whole run: arrival offsets (Poisson), tenant of each
  // request (0.3 / 0.4 / 0.3), and a Zipf(1.2)-popular sample so the
  // cache sees skewed reuse instead of a uniform scan.
  util::Rng rng(seed);
  std::vector<double> zipf_cdf(ids.size());
  double zipf_total = 0.0;
  for (size_t i = 0; i < ids.size(); ++i) {
    zipf_total += 1.0 / std::pow(static_cast<double>(i + 1), 1.2);
    zipf_cdf[i] = zipf_total;
  }
  std::vector<int64_t> offsets_us(static_cast<size_t>(num_requests));
  std::vector<int> tenant_of(static_cast<size_t>(num_requests));
  std::vector<int> sample_of(static_cast<size_t>(num_requests));
  double t_us = 0.0;
  for (int i = 0; i < num_requests; ++i) {
    t_us += -std::log(1.0 - rng.Uniform()) * 1e6 / offered_rps;
    offsets_us[static_cast<size_t>(i)] = static_cast<int64_t>(t_us);
    const double tenant_draw = rng.Uniform();
    tenant_of[static_cast<size_t>(i)] =
        tenant_draw < 0.3 ? 0 : (tenant_draw < 0.7 ? 1 : 2);
    const double sample_draw = rng.Uniform() * zipf_total;
    const size_t rank = static_cast<size_t>(
        std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), sample_draw) -
        zipf_cdf.begin());
    sample_of[static_cast<size_t>(i)] =
        ids[std::min(rank, ids.size() - 1)];
  }

  // One slot per request, written by exactly one callback (worker thread
  // or, for cache hits, inline on this thread) and read only after
  // Shutdown() joins the workers.
  std::vector<double> e2e_us(static_cast<size_t>(num_requests), -1.0);
  std::vector<uint8_t> failed(static_cast<size_t>(num_requests), 0);
  std::vector<uint8_t> hit(static_cast<size_t>(num_requests), 0);
  std::vector<uint8_t> admitted(static_cast<size_t>(num_requests), 0);

  const auto start_tp = std::chrono::steady_clock::now();
  for (int i = 0; i < num_requests; ++i) {
    const size_t slot = static_cast<size_t>(i);
    std::this_thread::sleep_until(
        start_tp + std::chrono::microseconds(offsets_us[slot]));
    serve::ServeRequest request;
    request.method = serve::ServeMethod::kPredict;
    request.task = core::TaskKind::kType;
    request.sample_id = sample_of[slot];
    request.tenant_id = tenant_ids[tenant_of[slot]];
    request.trace_id = static_cast<uint64_t>(i);
    request.deadline_us = util::DeadlineAfterUs(2'000'000);
    util::WallTimer e2e_timer;
    const util::Status status = server.Submit(
        request, [&e2e_us, &failed, &hit, slot,
                  e2e_timer](serve::ServeResponse&& r) {
          if (r.status.ok()) {
            e2e_us[slot] = e2e_timer.ElapsedSeconds() * 1e6;
            hit[slot] = r.cache_hit ? 1 : 0;
          } else {
            failed[slot] = 1;
          }
        });
    if (status.ok()) admitted[slot] = 1;
  }
  const int64_t high_water = server.batcher().high_water();
  const int64_t cache_hits = server.cache()->hits();
  const int64_t cache_misses = server.cache()->misses();
  server.Shutdown();

  MixedTenantResult result;
  result.load_factor = load_factor;
  result.offered_rps = offered_rps;
  result.queue_high_water = high_water;
  result.cache_hits = cache_hits;
  result.cache_misses = cache_misses;
  std::vector<double> lat[3];
  for (int i = 0; i < num_requests; ++i) {
    const size_t slot = static_cast<size_t>(i);
    TenantPointStats& stats = result.tenants[tenant_of[slot]];
    ++stats.submitted;
    if (!admitted[slot]) {
      ++stats.rejected;
      continue;
    }
    ++stats.accepted;  // Passed admission; `shed` is the failed subset.
    if (failed[slot]) {
      ++stats.shed;
    } else {
      stats.cache_hits += hit[slot];
      lat[tenant_of[slot]].push_back(e2e_us[slot]);
    }
  }
  for (int t = 0; t < 3; ++t) {
    result.tenants[t].p50_us = Percentile(lat[t], 0.50);
    result.tenants[t].p99_us = Percentile(lat[t], 0.99);
  }
  return result;
}

void EmitMixedPoint(std::ofstream& json, const MixedTenantResult& m,
                    bool last) {
  json << "    {\"load_factor\": " << m.load_factor
       << ", \"offered_rps\": " << m.offered_rps
       << ", \"queue_high_water\": " << m.queue_high_water
       << ", \"cache\": {\"hits\": " << m.cache_hits
       << ", \"misses\": " << m.cache_misses << "},\n     \"tenants\": [\n";
  for (int t = 0; t < 3; ++t) {
    const TenantPointStats& s = m.tenants[t];
    json << "       {\"name\": \"" << kTenantNames[t]
         << "\", \"submitted\": " << s.submitted
         << ", \"accepted\": " << s.accepted
         << ", \"rejected\": " << s.rejected << ", \"shed\": " << s.shed
         << ", \"cache_hits\": " << s.cache_hits
         << ", \"p50_us\": " << s.p50_us << ", \"p99_us\": " << s.p99_us
         << "}" << (t == 2 ? "\n" : ",\n");
  }
  json << "     ]}" << (last ? "\n" : ",\n");
}

void EmitLoadPoint(std::ofstream& json, const LoadPointResult& r, bool last) {
  const double reject_rate =
      r.requests == 0 ? 0.0
                      : static_cast<double>(r.rejected) /
                            static_cast<double>(r.requests);
  json << "    {\"offered_rps\": " << r.offered_rps
       << ", \"requests\": " << r.requests << ", \"accepted\": " << r.accepted
       << ", \"rejected\": " << r.rejected
       << ", \"deadline_expired\": " << r.expired
       << ", \"reject_rate\": " << reject_rate
       << ", \"throughput_rps\": " << r.throughput_rps
       << ", \"p50_us\": " << r.p50_us << ", \"p99_us\": " << r.p99_us
       << ", \"queue_high_water\": " << r.queue_high_water
       << ", \"mean_batch_size\": " << r.mean_batch_size << "}"
       << (last ? "\n" : ",\n");
}

}  // namespace

int main() {
  const bench::Scale scale = bench::GetScale();
  const bool quick = scale.name == "quick";
  std::cerr << "[serving] scale=" << scale.name << "\n";

  data::WikiTableOptions options;
  options.num_tables = quick ? 40 : 120;
  const data::TableCorpus corpus = data::GenerateWikiTableCorpus(options);
  core::ExplainTiConfig config;
  config.sample_size = 4;
  config.top_k = 3;
  core::ExplainTiModel model(config, corpus);
  model.RefreshStores();
  const core::InferenceSession& session = model.session();

  const core::TaskData& task = model.task_data(core::TaskKind::kType);
  std::vector<int> ids;
  for (int id = 0;
       id < static_cast<int>(task.samples.size()) && ids.size() < 24; ++id) {
    ids.push_back(id);
  }
  CHECK(!ids.empty());

  // Warm the arenas on the calling thread and the pool before timing.
  for (int r = 0; r < 2; ++r) {
    for (int id : ids) session.Predict(core::TaskKind::kType, id);
    session.PredictBatch(core::TaskKind::kType, ids);
  }

  // Sequential one-request-at-a-time baseline (closed loop, one thread):
  // the reference the micro-batching server must beat.
  const int baseline_calls = quick ? 200 : 800;
  std::vector<double> baseline_us;
  baseline_us.reserve(static_cast<size_t>(baseline_calls));
  util::WallTimer baseline_timer;
  for (int i = 0; i < baseline_calls; ++i) {
    util::WallTimer call_timer;
    session.Predict(core::TaskKind::kType,
                    ids[static_cast<size_t>(i) % ids.size()]);
    baseline_us.push_back(call_timer.ElapsedSeconds() * 1e6);
  }
  const double baseline_s = baseline_timer.ElapsedSeconds();
  const double sequential_rps =
      static_cast<double>(baseline_calls) / baseline_s;
  std::cerr << "[serving] sequential baseline: " << sequential_rps
            << " rps (p50 " << Percentile(baseline_us, 0.50) << "us)\n";

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  serve::ServerOptions server_options;
  server_options.num_workers = static_cast<int>(std::clamp(hw / 2u, 1u, 4u));
  server_options.batcher.max_batch_size = 8;
  server_options.batcher.max_queue_depth = 64;

  // Open-loop Poisson offered loads relative to the sequential capacity:
  // comfortable, saturating, and overloaded. The overload point is where
  // admission control matters — the queue must stay bounded and shed
  // with kResourceExhausted instead of growing latency without bound.
  const double load_factors[] = {0.5, 1.0, 2.0};
  const int requests_per_point = quick ? 240 : 960;
  std::vector<LoadPointResult> points;
  for (size_t i = 0; i < 3; ++i) {
    const double offered = sequential_rps * load_factors[i];
    LoadPointResult r =
        RunLoadPoint(session, ids, requests_per_point, offered,
                     /*seed=*/1234 + i, server_options);
    std::cerr << "[serving] offered " << r.offered_rps << " rps -> served "
              << r.throughput_rps << " rps, p50 " << r.p50_us << "us p99 "
              << r.p99_us << "us, rejected " << r.rejected << "/"
              << r.requests << ", queue high-water " << r.queue_high_water
              << ", mean batch " << r.mean_batch_size << "\n";
    points.push_back(r);
  }

  // Mixed-tenant overload phase: 1x (comfortable) and 2x (overloaded)
  // the sequential capacity. Shares the single-tenant server shape but
  // enables the response cache and registers the three-tenant policy.
  const double mixed_factors[] = {1.0, 2.0};
  std::vector<MixedTenantResult> mixed;
  for (size_t i = 0; i < 2; ++i) {
    MixedTenantResult m = RunMixedTenantPoint(
        session, ids, requests_per_point, sequential_rps * mixed_factors[i],
        mixed_factors[i], /*seed=*/7100 + i, server_options, sequential_rps);
    std::cerr << "[serving] mixed " << m.load_factor << "x: cache "
              << m.cache_hits << "/" << (m.cache_hits + m.cache_misses)
              << " hits, queue high-water " << m.queue_high_water << "\n";
    for (int t = 0; t < 3; ++t) {
      const TenantPointStats& s = m.tenants[t];
      std::cerr << "[serving]   " << kTenantNames[t] << ": " << s.accepted
                << "/" << s.submitted << " accepted, " << s.rejected
                << " rejected, " << s.shed << " shed, p99 " << s.p99_us
                << "us\n";
    }
    mixed.push_back(m);
  }

  const LoadPointResult& peak = points.back();
  const double speedup = peak.throughput_rps / sequential_rps;
  std::cerr << "[serving] peak batched throughput " << peak.throughput_rps
            << " rps = " << speedup << "x sequential\n";

  // The queue must have stayed within its bound at every load point —
  // overload shows up as rejects, not as unbounded buffering.
  for (const LoadPointResult& r : points) {
    CHECK_LE(r.queue_high_water, server_options.batcher.max_queue_depth);
  }
  for (const MixedTenantResult& m : mixed) {
    CHECK_LE(m.queue_high_water, server_options.batcher.max_queue_depth);
  }
  // Batching needs cores to fan out to; gate the throughput assertion on
  // real hardware parallelism (CI release runners have >= 4). The
  // overload-isolation assertions are gated the same way: on a starved
  // host the submit thread cannot even hold the offered schedule, so the
  // 2x point degenerates.
  if (hw >= 4) {
    CHECK_GE(speedup, 1.5)
        << "micro-batched serving failed to beat sequential by 1.5x";
    // Overload isolation: doubling the offered load must not move the
    // interactive tenant's p99 by more than 10% (plus a small absolute
    // slack for timer noise on sub-millisecond tails)...
    const TenantPointStats& inter_1x = mixed[0].tenants[0];
    const TenantPointStats& inter_2x = mixed[1].tenants[0];
    CHECK_LE(inter_2x.p99_us, 1.10 * inter_1x.p99_us + 5000.0)
        << "interactive p99 degraded under 2x overload: " << inter_1x.p99_us
        << "us -> " << inter_2x.p99_us << "us";
    // ...because the background tenant absorbed the excess: its quota
    // (0.5x capacity vs ~0.6x offered share) plus preemption must have
    // shed traffic at the 2x point.
    const TenantPointStats& bg_2x = mixed[1].tenants[2];
    CHECK_GT(bg_2x.rejected + bg_2x.shed, 0)
        << "background tenant was not shed under 2x overload";
  }

  std::ofstream json("BENCH_serving.json");
  CHECK(json.good()) << "cannot open BENCH_serving.json";
  json << "{\n  " << bench::HostMetaJson()
       << ",\n  \"hardware_threads\": " << hw
       << ",\n  \"server\": {\"num_workers\": " << server_options.num_workers
       << ", \"max_batch_size\": " << server_options.batcher.max_batch_size
       << ", \"max_queue_depth\": " << server_options.batcher.max_queue_depth
       << "},\n  \"sequential\": {\"throughput_rps\": " << sequential_rps
       << ", \"p50_us\": " << Percentile(baseline_us, 0.50)
       << ", \"p99_us\": " << Percentile(baseline_us, 0.99)
       << "},\n  \"load_points\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    EmitLoadPoint(json, points[i], i + 1 == points.size());
  }
  json << "  ],\n  \"peak_speedup_vs_sequential\": " << speedup
       << ",\n  \"mixed_tenant\": {\n    \"requests_per_point\": "
       << requests_per_point
       << ",\n    \"background_quota_rps\": " << 0.5 * sequential_rps
       << ",\n    \"points\": [\n";
  for (size_t i = 0; i < mixed.size(); ++i) {
    EmitMixedPoint(json, mixed[i], i + 1 == mixed.size());
  }
  json << "    ]\n  }\n}\n";
  std::cerr << "[serving] wrote BENCH_serving.json\n";
  return 0;
}
