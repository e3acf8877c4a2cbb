// Workload table, fixture construction, the tape-path reference answers
// and the bit-exact correctness check.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <thread>

#include "e2e.h"
#include "data/wiki_generator.h"
#include "util/logging.h"
#include "util/rng.h"

namespace explainti::e2e {

namespace {

// Heavy rates sit near 30% of each workload's closed-loop throughput as
// measured on the commit that introduced the benchmark (README.md); they
// are frozen so later commits receive identical offered load.
const std::vector<WorkloadSpec> kWorkloads = {
    {"predict_type", Traffic::kPredictType, 240, 1, 500.0, 950.0, false},
    {"explain_mixed", Traffic::kExplainMixed, 240, 4, 300.0, 550.0, false},
    {"qa_tenants", Traffic::kQaTenants, 40, 1, 1000.0, 3000.0, false},
    {"explain_rollout", Traffic::kExplainMixed, 60, 4, 300.0, 500.0, true},
};

constexpr uint64_t kCorpusSeed = 7;
constexpr uint64_t kWeightsSeedA = 1234;
constexpr uint64_t kWeightsSeedB = 99;
constexpr uint64_t kPopularitySeed = 2024;
// Zipf exponent of request popularity in qa_tenants; chosen so the
// response cache (capacity kQaCacheCapacity) hits 60-80% of requests.
constexpr double kQaZipfExponent = 1.0;
constexpr int kQaCacheCapacity = 128;
constexpr double kTenantShares[3] = {0.3, 0.4, 0.3};

bool SameFloats(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool SameBits(float a, float b) {
  return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
}

bool SameExplanation(const core::Explanation& a, const core::Explanation& b) {
  if (a.predicted_labels != b.predicted_labels ||
      !SameFloats(a.probabilities, b.probabilities) ||
      a.ann_degraded != b.ann_degraded ||
      a.degradation_note != b.degradation_note ||
      a.local.size() != b.local.size() || a.global.size() != b.global.size() ||
      a.structural.size() != b.structural.size()) {
    return false;
  }
  for (size_t i = 0; i < a.local.size(); ++i) {
    const core::LocalExplanation& x = a.local[i];
    const core::LocalExplanation& y = b.local[i];
    if (x.window_start != y.window_start || x.window_end != y.window_end ||
        x.window_start2 != y.window_start2 || x.window_end2 != y.window_end2 ||
        !SameBits(x.relevance, y.relevance) || x.text != y.text) {
      return false;
    }
  }
  for (size_t i = 0; i < a.global.size(); ++i) {
    const core::GlobalExplanation& x = a.global[i];
    const core::GlobalExplanation& y = b.global[i];
    if (x.train_sample_id != y.train_sample_id ||
        !SameBits(x.influence, y.influence) || x.text != y.text ||
        x.labels != y.labels) {
      return false;
    }
  }
  for (size_t i = 0; i < a.structural.size(); ++i) {
    const core::StructuralExplanation& x = a.structural[i];
    const core::StructuralExplanation& y = b.structural[i];
    if (x.neighbor_sample_id != y.neighbor_sample_id ||
        !SameBits(x.attention, y.attention) || x.via != y.via ||
        x.text != y.text || x.labels != y.labels) {
      return false;
    }
  }
  return true;
}

void FlipLowBit(float* value) {
  *value = std::bit_cast<float>(std::bit_cast<uint32_t>(*value) ^ 1u);
}

// Runs fn(i) for i in [0, n) on every hardware thread. Used only for the
// untimed reference computation; the tape path is const and thread-safe.
template <typename Fn>
void ForEachParallel(size_t n, Fn fn) {
  const size_t threads =
      std::max<size_t>(1, std::min<size_t>(n, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&fn, t, threads, n] {
      for (size_t i = t; i < n; i += threads) fn(i);
    });
  }
  for (std::thread& th : pool) th.join();
}

void ComputeTapeReferences(const core::ExplainTiModel& model,
                           const std::vector<RequestSpec>& requests,
                           std::vector<Reference>* refs) {
  refs->assign(requests.size(), Reference{});
  ForEachParallel(requests.size(), [&](size_t i) {
    const RequestSpec& r = requests[i];
    if (r.method == serve::ServeMethod::kPredict) {
      (*refs)[i].labels = model.Predict(r.task, r.sample_id);
    } else if (r.method == serve::ServeMethod::kExplain) {
      (*refs)[i].explanation = model.Explain(r.task, r.sample_id);
    }
  });
}

std::vector<int> Range(int begin, int end) {
  std::vector<int> out;
  for (int i = begin; i < end; ++i) out.push_back(i);
  return out;
}

void AddSampleRequests(serve::ServeMethod method, core::TaskKind task,
                       int count, std::vector<RequestSpec>* requests) {
  for (int id = 0; id < count; ++id) {
    RequestSpec r;
    r.method = method;
    r.task = task;
    r.sample_id = id;
    requests->push_back(r);
  }
}

// qa_tenants traffic: the three QA classes plus Predict. Each class's
// popularity order is a fixed shuffle, so the hot set is the same on
// every run and only the draws depend on --seed.
void BuildQaTraffic(Fixture* f) {
  std::vector<int> point, find_type, find_pairs, predict;
  for (RequestSpec& r : BuildQaQueries(f->corpus, -1)) {
    std::vector<int>* cls = r.qa_class == QaClass::kPoint      ? &point
                            : r.qa_class == QaClass::kFindType ? &find_type
                                                               : &find_pairs;
    cls->push_back(static_cast<int>(f->requests.size()));
    f->requests.push_back(std::move(r));
  }
  for (size_t id = 0; id < f->corpus.type_samples.size(); ++id) {
    RequestSpec r;
    r.sample_id = static_cast<int>(id);
    predict.push_back(static_cast<int>(f->requests.size()));
    f->requests.push_back(r);
  }
  util::Rng shuffle(kPopularitySeed);
  for (std::vector<int>* cls : {&point, &find_type, &find_pairs, &predict}) {
    shuffle.Shuffle(*cls);
  }
  f->sampler.AddClass(1.0 / 6.0, kQaZipfExponent, point);
  f->sampler.AddClass(1.0 / 6.0, kQaZipfExponent, find_type);
  f->sampler.AddClass(1.0 / 6.0, kQaZipfExponent, find_pairs);
  f->sampler.AddClass(0.5, kQaZipfExponent, predict);
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() { return kWorkloads; }

std::vector<RequestSpec> BuildQaQueries(const data::TableCorpus& corpus,
                                        int max_tables) {
  const size_t tables =
      max_tables < 0 ? corpus.tables.size()
                     : std::min(corpus.tables.size(),
                                static_cast<size_t>(max_tables));
  std::vector<std::vector<int>> type_by_table(tables);
  std::vector<std::vector<int>> relation_by_table(tables);
  for (size_t id = 0; id < corpus.type_samples.size(); ++id) {
    const size_t t = static_cast<size_t>(corpus.type_samples[id].table_index);
    if (t < tables) type_by_table[t].push_back(static_cast<int>(id));
  }
  for (size_t id = 0; id < corpus.relation_samples.size(); ++id) {
    const size_t t =
        static_cast<size_t>(corpus.relation_samples[id].table_index);
    if (t < tables) relation_by_table[t].push_back(static_cast<int>(id));
  }
  std::vector<RequestSpec> out;
  auto add = [&out](QaClass cls, qa::QaQueryKind kind, core::TaskKind task,
                    std::vector<int> ids, int label) {
    RequestSpec r;
    r.method = serve::ServeMethod::kQaAnswer;
    r.task = task;
    r.sample_id = ids.front();
    r.qa.kind = kind;
    r.qa.sample_ids = std::move(ids);
    r.qa.label_id = label;
    r.qa_class = cls;
    out.push_back(std::move(r));
  };
  for (size_t t = 0; t < tables; ++t) {
    for (int id : type_by_table[t]) {
      add(QaClass::kPoint, qa::QaQueryKind::kColumnType,
          core::TaskKind::kType, {id}, -1);
    }
  }
  for (size_t t = 0; t < tables; ++t) {
    if (!type_by_table[t].empty()) {
      // Target: the gold type of the table's first column.
      const int label =
          corpus.type_samples[static_cast<size_t>(type_by_table[t].front())]
              .labels.front();
      add(QaClass::kFindType, qa::QaQueryKind::kFindColumnsOfType,
          core::TaskKind::kType, type_by_table[t], label);
    }
    if (!relation_by_table[t].empty()) {
      add(QaClass::kFindPairs, qa::QaQueryKind::kFindRelatedPairs,
          core::TaskKind::kRelation, relation_by_table[t], -1);
    }
  }
  return out;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool Matches(const RequestSpec& spec, const Reference& ref,
             const serve::ServeResponse& response) {
  switch (spec.method) {
    case serve::ServeMethod::kPredict:
      return response.labels == ref.labels;
    case serve::ServeMethod::kExplain:
      return SameExplanation(response.explanation, ref.explanation);
    case serve::ServeMethod::kQaAnswer:
      return qa::SameAnswer(response.qa, ref.answer);
    case serve::ServeMethod::kPredictProbabilities:
      break;
  }
  return false;
}

void CorruptReference(const RequestSpec& spec, Reference* ref) {
  switch (spec.method) {
    case serve::ServeMethod::kPredict:
      CHECK(!ref->labels.empty());
      ref->labels.front() ^= 1;
      return;
    case serve::ServeMethod::kExplain:
      CHECK(!ref->explanation.probabilities.empty());
      FlipLowBit(&ref->explanation.probabilities.front());
      return;
    case serve::ServeMethod::kQaAnswer:
      CHECK(!ref->answer.justification.steps.empty());
      FlipLowBit(&ref->answer.justification.steps.front().confidence);
      return;
    case serve::ServeMethod::kPredictProbabilities:
      break;
  }
  LOG(FATAL) << "no reference to corrupt";
}

void Sampler::AddClass(double weight, double zipf_exponent,
                       std::vector<int> reqs) {
  CHECK(!reqs.empty());
  Class c;
  c.weight = weight;
  c.zipf_exponent = zipf_exponent;
  c.requests = std::move(reqs);
  double total = 0.0;
  for (size_t rank = 0; rank < c.requests.size(); ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), zipf_exponent);
    c.cdf.push_back(total);
  }
  classes.push_back(std::move(c));
  class_cdf.clear();
  double cum = 0.0;
  for (const Class& k : classes) class_cdf.push_back(cum += k.weight);
}

int Sampler::Draw(util::Rng& rng) const {
  const double u = rng.Uniform() * class_cdf.back();
  const size_t k = std::min<size_t>(
      std::upper_bound(class_cdf.begin(), class_cdf.end(), u) -
          class_cdf.begin(),
      classes.size() - 1);
  const Class& c = classes[k];
  const double v = rng.Uniform() * c.cdf.back();
  const size_t rank = std::min<size_t>(
      std::upper_bound(c.cdf.begin(), c.cdf.end(), v) - c.cdf.begin(),
      c.requests.size() - 1);
  return c.requests[rank];
}

serve::ServerOptions Fixture::ServerOptions() {
  serve::ServerOptions options;  // Library defaults: 2 workers, batch 8.
  // QA is always on so the qa probes have an engine to call; without the
  // surrogate the engine is built for free and Predict/Explain traffic
  // never touches it.
  options.qa.enabled = true;
  if (spec->traffic == Traffic::kQaTenants) {
    options.qa.options.enable_surrogate = true;
    options.qa.options.confidence_threshold = 0.9f;
    options.cache.enabled = true;
    options.cache.capacity = kQaCacheCapacity;
    options.tenants = &tenants;
  }
  return options;
}

std::unique_ptr<Fixture> BuildFixture(const WorkloadSpec& spec,
                                      const std::string& dir) {
  auto f = std::make_unique<Fixture>();
  f->spec = &spec;
  std::filesystem::create_directories(dir);

  data::WikiTableOptions corpus_options;
  corpus_options.num_tables = spec.num_tables;
  corpus_options.seed = kCorpusSeed;
  f->corpus = data::GenerateWikiTableCorpus(corpus_options);
  f->config.seed = kWeightsSeedA;
  f->config.store_segments = spec.store_segments;

  // Untrained seeded weights: latency depends on shapes, not on values.
  // Weights B are another seed's init, loaded under A's config exactly as
  // the rollout loads them.
  f->weight_paths.push_back(dir + "/weights_a.bin");
  if (spec.rollout) f->weight_paths.push_back(dir + "/weights_b.bin");
  for (size_t w = 0; w < f->weight_paths.size(); ++w) {
    core::ExplainTiConfig init = f->config;
    init.seed = w == 0 ? kWeightsSeedA : kWeightsSeedB;
    const core::ExplainTiModel model(init, f->corpus);
    CHECK(model.SaveWeights(f->weight_paths[w]).ok());
  }
  // The references come from the tape path of a replica loaded the way
  // the served one is, so stores and weights match bit for bit.
  std::vector<std::unique_ptr<core::ExplainTiModel>> replicas;
  for (const std::string& path : f->weight_paths) {
    auto replica = core::LoadReplicaForSwap(f->config, f->corpus, path);
    CHECK(replica.ok()) << replica.status().ToString();
    replicas.push_back(std::move(replica).value());
  }
  const core::InferenceSession& session = replicas[0]->session();

  const int num_type = static_cast<int>(
      session.task_data(core::TaskKind::kType).samples.size());
  const int num_relation = static_cast<int>(
      session.task_data(core::TaskKind::kRelation).samples.size());
  switch (spec.traffic) {
    case Traffic::kPredictType:
      AddSampleRequests(serve::ServeMethod::kPredict, core::TaskKind::kType,
                        num_type, &f->requests);
      f->sampler.AddClass(1.0, 0.0, Range(0, num_type));
      break;
    case Traffic::kExplainMixed:
      AddSampleRequests(serve::ServeMethod::kExplain, core::TaskKind::kType,
                        num_type, &f->requests);
      AddSampleRequests(serve::ServeMethod::kExplain,
                        core::TaskKind::kRelation, num_relation,
                        &f->requests);
      f->sampler.AddClass(0.5, 0.0, Range(0, num_type));
      f->sampler.AddClass(0.5, 0.0, Range(num_type, num_type + num_relation));
      break;
    case Traffic::kQaTenants: {
      BuildQaTraffic(f.get());
      const char* names[3] = {"interactive", "batch", "background"};
      const serve::Priority classes[3] = {serve::Priority::kInteractive,
                                          serve::Priority::kBatch,
                                          serve::Priority::kBackground};
      double cum = 0.0;
      for (int t = 0; t < 3; ++t) {
        serve::TenantOptions options;
        options.name = names[t];
        options.priority = classes[t];
        // The background quota is exercised on every admission but sized
        // far above any rate this workload reaches, closed loop included,
        // so it never sheds: refusals would count as failures.
        if (t == 2) options.quota_rps = 20.0 * spec.heavy_rps;
        f->tenant_ids.push_back(f->tenants.Register(options));
        f->tenant_cdf.push_back(cum += kTenantShares[t]);
      }
      break;
    }
  }

  f->refs.resize(replicas.size());
  for (size_t w = 0; w < replicas.size(); ++w) {
    ComputeTapeReferences(*replicas[w], f->requests, &f->refs[w]);
  }
  return f;
}

void FillQaReferences(const serve::InferenceServer& server, Fixture* fixture) {
  const qa::QaEngine* engine = server.qa_engine();
  CHECK(engine != nullptr);
  for (size_t i = 0; i < fixture->requests.size(); ++i) {
    const RequestSpec& r = fixture->requests[i];
    if (r.method != serve::ServeMethod::kQaAnswer) continue;
    auto answer = engine->Answer(r.qa);
    CHECK(answer.ok()) << answer.status().ToString();
    fixture->refs[0][i].answer = std::move(answer).value();
  }
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace explainti::e2e
