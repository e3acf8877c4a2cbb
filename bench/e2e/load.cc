// Load generation: one generator thread submitting into the server, open
// loop (Poisson, timed from each request's due time) or closed loop (a
// fixed number of requests in flight). Every response is checked against
// its reference inside the completion callback, after its completion
// time has been taken.

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>

#include "e2e.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace explainti::e2e {

namespace {

constexpr int64_t kDeadlineUs = 2'000'000;
// Generous drain bound: every request carries a 2 s deadline, so a phase
// that has not drained after this long has lost a callback.
constexpr auto kDrainTimeout = std::chrono::seconds(60);

struct Slot {
  int request = -1;
  int tenant = 0;
  int64_t due_ns = 0;
  int64_t submit_ns = 0;
  int64_t admitted_ns = 0;
  int64_t done_ns = 0;
  int64_t queue_wait_us = 0;
  int64_t total_us = 0;
  int batch_size = 0;
  bool refused = false;
  bool completed = false;
  bool ok = false;
  bool expired = false;
  bool cache_hit = false;
  bool match = false;
};

/// Completion bookkeeping shared by the generator and the callbacks.
struct Tracker {
  const Fixture* fixture = nullptr;
  std::mutex mu;
  std::condition_variable cv;
  int64_t outstanding = 0;  // Guarded by mu.

  void Complete(Slot* slot, serve::ServeResponse&& r) {
    slot->done_ns = NowNs();
    slot->ok = r.status.ok();
    slot->expired = r.status.code() == util::StatusCode::kDeadlineExceeded;
    slot->queue_wait_us = r.queue_wait_us;
    slot->total_us = r.total_us;
    slot->batch_size = r.batch_size;
    slot->cache_hit = r.cache_hit;
    if (slot->ok) {
      const RequestSpec& spec =
          fixture->requests[static_cast<size_t>(slot->request)];
      const size_t w = static_cast<size_t>(r.model_generation - 1) %
                       fixture->refs.size();
      slot->match =
          Matches(spec, fixture->refs[w][static_cast<size_t>(slot->request)], r);
    }
    slot->completed = true;
    // Notify under the lock: once `outstanding` reaches 0 the generator
    // may return from Drain and destroy this tracker.
    std::lock_guard<std::mutex> lock(mu);
    --outstanding;
    cv.notify_all();
  }

  void Drain() {
    std::unique_lock<std::mutex> lock(mu);
    CHECK(cv.wait_for(lock, kDrainTimeout, [this] { return outstanding == 0; }))
        << "load phase did not drain: " << outstanding << " outstanding";
  }
};

serve::ServeRequest MakeRequest(const Fixture& f, const Slot& slot,
                                uint64_t trace_id) {
  const RequestSpec& spec = f.requests[static_cast<size_t>(slot.request)];
  serve::ServeRequest req;
  req.method = spec.method;
  req.task = spec.task;
  req.sample_id = spec.sample_id;
  if (spec.method == serve::ServeMethod::kQaAnswer) req.qa = spec.qa;
  req.trace_id = trace_id;
  if (!f.tenant_ids.empty()) {
    req.tenant_id = f.tenant_ids[static_cast<size_t>(slot.tenant)];
  }
  return req;
}

int DrawTenant(const Fixture& f, util::Rng& rng) {
  if (f.tenant_cdf.empty()) return 0;
  const double u = rng.Uniform() * f.tenant_cdf.back();
  for (size_t t = 0; t < f.tenant_cdf.size(); ++t) {
    if (u < f.tenant_cdf[t]) return static_cast<int>(t);
  }
  return static_cast<int>(f.tenant_cdf.size()) - 1;
}

/// Submits `slot` (its request and due time already set).
void Submit(const LoadContext& ctx, Tracker* tracker, Slot* slot,
            uint64_t trace_id) {
  serve::ServeRequest req = MakeRequest(*ctx.fixture, *slot, trace_id);
  {
    std::lock_guard<std::mutex> lock(tracker->mu);
    ++tracker->outstanding;
  }
  slot->submit_ns = NowNs();
  req.deadline_us = util::DeadlineAfterUs(kDeadlineUs);
  const util::Status admitted = ctx.server->Submit(
      std::move(req), [tracker, slot](serve::ServeResponse&& r) {
        tracker->Complete(slot, std::move(r));
      });
  slot->admitted_ns = NowNs();
  if (!admitted.ok()) {
    slot->refused = true;
    {
      std::lock_guard<std::mutex> lock(tracker->mu);
      --tracker->outstanding;
    }
  }
}

/// `end_ns` ends the phase; OK completions before it count as in time.
template <typename Slots>
PhaseResult Summarize(const LoadContext& ctx, const Slots& slots,
                      int64_t end_ns, double seconds, bool from_due) {
  PhaseResult out;
  out.seconds = seconds;
  std::vector<uint8_t> seen(ctx.fixture->requests.size(), 0);
  uint64_t trace_id = ctx.first_trace_id;
  for (const Slot& s : slots) {
    const uint64_t id = trace_id++;
    ++out.attempted;
    out.admit_us.push_back(static_cast<double>(s.admitted_ns - s.submit_ns) /
                           1e3);
    if (from_due) {
      out.late_us.push_back(static_cast<double>(s.submit_ns - s.due_ns) / 1e3);
    }
    if (ctx.trace != nullptr) {
      const int64_t end = s.completed ? s.done_ns : s.admitted_ns;
      const int root = ctx.trace->Add(id, "request", s.due_ns, end);
      ctx.trace->Add(id, "gen.late", s.due_ns, s.submit_ns, root);
      ctx.trace->Add(id, "serve.admit", s.submit_ns, s.admitted_ns, root);
      if (s.completed && !s.cache_hit && s.ok) {
        const int64_t arrival = s.done_ns - s.total_us * 1000;
        const int64_t dispatch = arrival + s.queue_wait_us * 1000;
        ctx.trace->Add(id, "serve.queue", arrival, dispatch, root);
        ctx.trace->Add(id, "serve.execute", dispatch, s.done_ns, root);
      }
    }
    if (s.refused) {
      ++out.refused;
      continue;
    }
    if (!s.ok) {
      ++out.not_ok;
      if (s.expired) ++out.expired;
      continue;
    }
    ++out.ok;
    if (s.done_ns < end_ns) ++out.ok_in_time;
    if (!s.match) ++out.mismatches;
    out.distinct_ok += 1 - seen[static_cast<size_t>(s.request)];
    seen[static_cast<size_t>(s.request)] = 1;
    out.latency_us.push_back(
        static_cast<double>(s.done_ns - (from_due ? s.due_ns : s.submit_ns)) /
        1e3);
    if (s.cache_hit) {
      ++out.cache_hits;
    } else {
      out.queue_wait_us.push_back(static_cast<double>(s.queue_wait_us));
      out.service_us.push_back(
          static_cast<double>(s.total_us - s.queue_wait_us));
      out.batch_size.push_back(static_cast<double>(s.batch_size));
    }
  }
  return out;
}

PhaseResult DriveOpenLoop(const LoadContext& ctx, std::vector<Slot> slots,
                          double seconds) {
  Tracker tracker;
  tracker.fixture = ctx.fixture;
  // A short lead so the first due time is never already in the past.
  const int64_t start_ns = NowNs() + 1'000'000;
  const auto start_tp =
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(start_ns));
  for (size_t i = 0; i < slots.size(); ++i) {
    Slot& slot = slots[i];
    std::this_thread::sleep_until(start_tp +
                                  std::chrono::nanoseconds(slot.due_ns));
    slot.due_ns += start_ns;
    Submit(ctx, &tracker, &slot, ctx.first_trace_id + i);
  }
  tracker.Drain();
  const int64_t end_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  return Summarize(ctx, slots, end_ns, seconds, /*from_due=*/true);
}

/// Poisson due offsets (ns from the phase start) at `rps`.
int64_t NextGapNs(util::Rng& rng, double rps) {
  return static_cast<int64_t>(-std::log(1.0 - rng.Uniform()) * 1e9 / rps);
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

PhaseResult RunOpenLoop(const LoadContext& ctx, double rps, double seconds,
                        uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Slot> slots;
  const int64_t end_ns = static_cast<int64_t>(seconds * 1e9);
  for (int64_t t = NextGapNs(rng, rps); t < end_ns; t += NextGapNs(rng, rps)) {
    Slot slot;
    slot.due_ns = t;
    slot.request = ctx.fixture->sampler.Draw(rng);
    slot.tenant = DrawTenant(*ctx.fixture, rng);
    slots.push_back(slot);
  }
  return DriveOpenLoop(ctx, std::move(slots), seconds);
}

PhaseResult RunClosedLoop(const LoadContext& ctx, int in_flight,
                          double seconds, uint64_t seed,
                          const std::vector<int>* order) {
  util::Rng rng(seed);
  Tracker tracker;
  tracker.fixture = ctx.fixture;
  std::deque<Slot> slots;  // Stable addresses for the callbacks.
  const int64_t start_ns = NowNs();
  const int64_t end_ns =
      order != nullptr ? INT64_MAX
                       : start_ns + static_cast<int64_t>(seconds * 1e9);
  for (size_t i = 0;; ++i) {
    {
      std::unique_lock<std::mutex> lock(tracker.mu);
      tracker.cv.wait(lock, [&] { return tracker.outstanding < in_flight; });
    }
    const int64_t now = NowNs();
    if (now >= end_ns || (order != nullptr && i >= order->size())) break;
    Slot& slot = slots.emplace_back();
    slot.due_ns = now;
    slot.request =
        order != nullptr ? (*order)[i] : ctx.fixture->sampler.Draw(rng);
    slot.tenant = DrawTenant(*ctx.fixture, rng);
    Submit(ctx, &tracker, &slot, ctx.first_trace_id + slots.size() - 1);
  }
  tracker.Drain();
  const double elapsed_s =
      order != nullptr ? static_cast<double>(NowNs() - start_ns) / 1e9
                       : seconds;
  return Summarize(ctx, slots, end_ns, elapsed_s, /*from_due=*/false);
}

PhaseResult Pool(const std::vector<PhaseResult>& phases) {
  PhaseResult out;
  auto join = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  for (const PhaseResult& p : phases) {
    out.attempted += p.attempted;
    out.refused += p.refused;
    out.not_ok += p.not_ok;
    out.expired += p.expired;
    out.mismatches += p.mismatches;
    out.ok += p.ok;
    out.ok_in_time += p.ok_in_time;
    out.cache_hits += p.cache_hits;
    out.seconds += p.seconds;
    join(out.latency_us, p.latency_us);
    join(out.queue_wait_us, p.queue_wait_us);
    join(out.service_us, p.service_us);
    join(out.batch_size, p.batch_size);
    join(out.admit_us, p.admit_us);
    join(out.late_us, p.late_us);
  }
  return out;
}

}  // namespace explainti::e2e
