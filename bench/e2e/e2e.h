#ifndef EXPLAINTI_BENCH_E2E_E2E_H_
#define EXPLAINTI_BENCH_E2E_E2E_H_

// Shared declarations of the end-to-end serving benchmark (see README.md).
// The benchmark reaches the library only through its stable serving surface:
// InferenceServer, ExplainTiModel/InferenceSession, LoadReplicaForSwap,
// EmbeddingStore, QaEngine::Answer, the tensor plan kernels and util.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/explain_ti_model.h"
#include "core/explanation.h"
#include "core/inference_session.h"
#include "data/corpus.h"
#include "qa/query.h"
#include "serve/server.h"
#include "serve/tenant.h"

namespace explainti::e2e {

enum class Traffic { kPredictType, kExplainMixed, kQaTenants };

/// One workload: its fixture, its traffic mix and its two fixed offered
/// rates. Rates are absolute constants, never derived from a measurement,
/// so every commit receives the same load.
struct WorkloadSpec {
  const char* name;
  Traffic traffic;
  int num_tables;
  int store_segments;
  double light_rps;
  double heavy_rps;
  /// A second thread rolls out weights A/B once per load window.
  bool rollout;
};

const std::vector<WorkloadSpec>& AllWorkloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// Label of a QA request class, used to name the qa probe metrics.
enum class QaClass { kNone, kPoint, kFindType, kFindPairs };

/// One distinct request of a workload.
struct RequestSpec {
  serve::ServeMethod method = serve::ServeMethod::kPredict;
  core::TaskKind task = core::TaskKind::kType;
  int sample_id = -1;
  qa::QaQuery qa;
  QaClass qa_class = QaClass::kNone;
};

/// Point, find-type and find-pairs queries over the first `max_tables`
/// tables of `corpus` (all tables when negative): one ColumnType per
/// column, one FindColumnsOfType per table (target: its first column's
/// gold type) and one FindRelatedPairs (any relation) per table.
std::vector<RequestSpec> BuildQaQueries(const data::TableCorpus& corpus,
                                        int max_tables);

/// Expected payload of one distinct request under one set of weights.
struct Reference {
  std::vector<int> labels;
  core::Explanation explanation;
  qa::QaAnswer answer;
};

/// Bit-exact comparison of a served payload with its reference.
bool Matches(const RequestSpec& spec, const Reference& ref,
             const serve::ServeResponse& response);

/// Flips one bit of `ref` (the --self-test corruption).
void CorruptReference(const RequestSpec& spec, Reference* ref);

/// Request popularity: each draw picks a class by weight, then a request
/// of that class by Zipf rank (exponent 0 = uniform).
struct Sampler {
  struct Class {
    double weight = 0.0;
    double zipf_exponent = 0.0;
    std::vector<int> requests;  ///< Indices into Fixture::requests.
    std::vector<double> cdf;    ///< Cumulative Zipf mass over `requests`.
  };
  std::vector<Class> classes;
  std::vector<double> class_cdf;

  void AddClass(double weight, double zipf_exponent, std::vector<int> reqs);
  int Draw(util::Rng& rng) const;
};

/// Everything built before the clock starts: corpus, weights on disk,
/// the distinct request set, its popularity, and the tape-path
/// references for each weight set (index 0 = A, 1 = B).
struct Fixture {
  const WorkloadSpec* spec = nullptr;
  data::TableCorpus corpus;
  core::ExplainTiConfig config;
  std::vector<std::string> weight_paths;
  std::vector<RequestSpec> requests;
  Sampler sampler;
  std::vector<std::vector<Reference>> refs;  ///< [weights][request].
  serve::TenantRegistry tenants;
  std::vector<int> tenant_ids;  ///< Registered ids; empty = no tenants.
  std::vector<double> tenant_cdf;

  serve::ServerOptions ServerOptions();
};

/// Builds the fixture under `dir` (created; removed by the caller).
/// Computes Predict/Explain references from the tape path; QA references
/// need a server and are filled by FillQaReferences.
std::unique_ptr<Fixture> BuildFixture(const WorkloadSpec& spec,
                                      const std::string& dir);

/// Fills the QA references (weights A) from `server.qa_engine()`.
void FillQaReferences(const serve::InferenceServer& server, Fixture* fixture);

// -- Statistics ---------------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
/// Median (mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Named results a run reports; each carries its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

// -- Tracing ------------------------------------------------------------

/// One span: a named interval on the steady clock, tied to its request
/// (trace id) and to the span that caused it (parent index, -1 = root).
struct Span {
  uint64_t trace_id = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
};

/// In-memory span log, written out once at exit. Single writer per
/// phase: the load loop appends after each phase completes; the probes
/// append from the probing thread.
class SpanLog {
 public:
  int Add(uint64_t trace_id, const char* name, int64_t start_ns,
          int64_t end_ns, int parent = -1);
  /// Per span name: median self time (duration minus the union of its
  /// children's intervals) and span count.
  std::map<std::string, std::pair<double, int64_t>> SelfTimesUs() const;
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

int64_t NowNs();

// -- Load ---------------------------------------------------------------

/// What one load phase measured, from outside the server.
struct PhaseResult {
  int64_t attempted = 0;
  int64_t refused = 0;    ///< Submit returned non-OK.
  int64_t not_ok = 0;     ///< Admitted, completed with a non-OK status.
  int64_t expired = 0;    ///< Subset of not_ok: kDeadlineExceeded.
  int64_t mismatches = 0;
  int64_t ok = 0;
  int64_t ok_in_time = 0;  ///< OK completions before the phase's end.
  int64_t cache_hits = 0;
  int64_t distinct_ok = 0;  ///< Distinct requests answered OK.
  double seconds = 0.0;
  std::vector<double> latency_us;     ///< Due (or submit) -> completion.
  std::vector<double> queue_wait_us;  ///< Non-cache-hit OK responses.
  std::vector<double> service_us;     ///< total_us - queue_wait_us.
  std::vector<double> batch_size;     ///< Non-cache-hit OK responses.
  std::vector<double> admit_us;       ///< Wall time of Submit.
  std::vector<double> late_us;        ///< Generator lateness.
};

/// Phases pooled into one: counts and seconds summed, samples joined
/// (distinct_ok is not poolable and stays 0).
PhaseResult Pool(const std::vector<PhaseResult>& phases);

struct LoadContext {
  serve::InferenceServer* server = nullptr;
  Fixture* fixture = nullptr;
  /// When set, every request records its five spans here.
  SpanLog* trace = nullptr;
  uint64_t first_trace_id = 0;
};

/// Open loop: Poisson arrivals at `rps` for `seconds`, each request timed
/// from its due time. The generator sleeps to each due time.
PhaseResult RunOpenLoop(const LoadContext& ctx, double rps, double seconds,
                        uint64_t seed);

/// Closed loop: `in_flight` outstanding requests for `seconds`, drawn
/// from the workload's popularity, each timed from its submission. With
/// `order`, sends exactly those requests instead and runs until they are
/// done (the warm-up replay).
PhaseResult RunClosedLoop(const LoadContext& ctx, int in_flight,
                          double seconds, uint64_t seed,
                          const std::vector<int>* order);

// -- Layer probes -------------------------------------------------------

/// Single-thread probes of core (`session`, the one `server` serves),
/// qa (`server`'s engine) and tensor over the workload's distinct inputs,
/// `passes` times each; each call is a span in `trace`. Adds the
/// per-layer metrics to `out`. The caller runs them on a one-thread pool.
void RunLayerProbes(const Fixture& fixture,
                    const core::InferenceSession& session,
                    const serve::InferenceServer& server, int passes,
                    SpanLog* trace, MetricMap* out);

}  // namespace explainti::e2e

#endif  // EXPLAINTI_BENCH_E2E_E2E_H_
