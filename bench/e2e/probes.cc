// Single-thread layer probes, timed from outside by calling each layer's
// public functions: core (session + embedding store), qa (the server's
// engine) and tensor (the plan kernels on the encoder's shapes). Each
// call is one span; metrics are medians over every call.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string>

#include "core/embedding_store.h"
#include "e2e.h"
#include "nn/transformer_config.h"
#include "tensor/plan_kernels.h"
#include "util/logging.h"
#include "util/rng.h"

namespace explainti::e2e {

namespace {

// Tables whose queries feed the qa probes on workloads without QA traffic.
constexpr int kQaProbeTables = 20;
// Timed calls per kernel per pass.
constexpr int kKernelCalls = 200;

class Prober {
 public:
  explicit Prober(SpanLog* trace) : trace_(trace) {}

  /// Times fn() as one span named `name` (trace id 0: probe calls belong
  /// to no request).
  template <typename Fn>
  void Time(const char* name, Fn&& fn) {
    const int64_t start = NowNs();
    fn();
    const int64_t end = NowNs();
    trace_->Add(/*trace_id=*/0, name, start, end);
    samples_[name].push_back(static_cast<double>(end - start) / 1e3);
  }

  double MedianOf(const char* name) const {
    auto it = samples_.find(name);
    CHECK(it != samples_.end()) << "no probe samples for " << name;
    return Median(it->second);
  }

 private:
  SpanLog* trace_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Sample ids of `task` the workload's distinct requests touch; every
/// sample of the task when the workload sends it no traffic.
std::vector<int> ProbeIds(const Fixture& f, const core::InferenceSession& s,
                          core::TaskKind task) {
  std::vector<uint8_t> used(s.task_data(task).samples.size(), 0);
  for (const RequestSpec& r : f.requests) {
    if (r.task != task) continue;
    if (r.method == serve::ServeMethod::kQaAnswer) {
      for (int id : r.qa.sample_ids) used[static_cast<size_t>(id)] = 1;
    } else {
      used[static_cast<size_t>(r.sample_id)] = 1;
    }
  }
  std::vector<int> ids;
  for (size_t i = 0; i < used.size(); ++i) {
    if (used[i]) ids.push_back(static_cast<int>(i));
  }
  if (ids.empty()) {
    for (size_t i = 0; i < used.size(); ++i) ids.push_back(static_cast<int>(i));
  }
  return ids;
}

struct CoreNames {
  const char* encode;
  const char* explain;
  const char* search;
};

void ProbeCore(const Fixture& f, const core::InferenceSession& session,
               core::TaskKind task, int passes, Prober* p) {
  const CoreNames names =
      task == core::TaskKind::kType
          ? CoreNames{"core.encode.type", "core.explain.type",
                      "core.store.search.type"}
          : CoreNames{"core.encode.relation", "core.explain.relation",
                      "core.store.search.relation"};
  const core::TaskData& data = session.task_data(task);
  core::EmbeddingStore::Options options;
  options.num_segments = f.config.store_segments;
  core::EmbeddingStore store(options);
  store.Rebuild(data.train_ids, session.EncodeBatch(task, data.train_ids));
  const core::EmbeddingStore::View view = store.view();
  std::vector<ann::SearchResult> hits;

  const std::vector<int> ids = ProbeIds(f, session, task);
  for (int pass = 0; pass < passes; ++pass) {
    for (int id : ids) {
      std::vector<std::vector<float>> cls;
      p->Time(names.encode, [&] { cls = session.EncodeBatch(task, {id}); });
      if (task == core::TaskKind::kType) {
        p->Time("core.predict.type", [&] { session.Predict(task, id); });
      }
      p->Time(names.explain, [&] { session.Explain(task, id); });
      const int exclude = data.IsTrainSample(id) ? id : -1;
      p->Time(names.search, [&] {
        view.SearchInto(cls.front(), session.config().top_k, exclude, &hits);
      });
    }
    if (task == core::TaskKind::kType) {
      for (size_t b = 0; b + 8 <= ids.size(); b += 8) {
        const std::vector<int> batch(ids.begin() + static_cast<long>(b),
                                     ids.begin() + static_cast<long>(b + 8));
        p->Time("core.predict_batch8", [&] { session.PredictBatch(task, batch); });
      }
    }
  }
}

struct QaTotals {
  int64_t answers = 0;
  int64_t steps = 0;
  int64_t surrogate_steps = 0;
  int64_t teacher_calls = 0;
};

void ProbeQa(const Fixture& f, const serve::InferenceServer& server,
             int passes, Prober* p, QaTotals* totals) {
  const qa::QaEngine* engine = server.qa_engine();
  CHECK(engine != nullptr);
  std::vector<RequestSpec> queries;
  for (const RequestSpec& r : f.requests) {
    if (r.method == serve::ServeMethod::kQaAnswer) queries.push_back(r);
  }
  if (queries.empty()) queries = BuildQaQueries(f.corpus, kQaProbeTables);
  for (int pass = 0; pass < passes; ++pass) {
    for (const RequestSpec& r : queries) {
      const char* name = r.qa_class == QaClass::kPoint ? "qa.answer.point"
                         : r.qa_class == QaClass::kFindType
                             ? "qa.answer.find_type"
                             : "qa.answer.find_pairs";
      util::StatusOr<qa::QaAnswer> answer = util::Status::OK();
      p->Time(name, [&] { answer = engine->Answer(r.qa); });
      CHECK(answer.ok()) << answer.status().ToString();
      const qa::QaAnswer& a = answer.value();
      ++totals->answers;
      totals->steps += static_cast<int64_t>(a.justification.steps.size());
      totals->surrogate_steps += a.surrogate_steps;
      // Stage 1 teacher scores plus stage 2 teacher explanations.
      for (const qa::QaStep& step : a.justification.steps) {
        if (step.tier == qa::QaTier::kTeacher) ++totals->teacher_calls;
      }
      for (const qa::QaAnswerEntry& e : a.entries) {
        const qa::QaStep& step =
            a.justification.steps[static_cast<size_t>(e.step)];
        if (step.tier == qa::QaTier::kTeacher) ++totals->teacher_calls;
      }
    }
  }
}

std::vector<float> RandomBuffer(util::Rng& rng, int64_t n) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.Normal(0.0, 0.5));
  return v;
}

/// Kernel probes on one encoder layer's shapes at sequence length L.
/// In-place kernels get their input restored (untimed) before each call.
void ProbeTensor(const std::string& base_model, int64_t L, int passes,
                 Prober* p, MetricMap* out) {
  const nn::TransformerConfig tc =
      nn::TransformerConfig::ForBaseModel(base_model, /*vocab_size=*/1);
  const int64_t d = tc.d_model;
  const int64_t heads = tc.num_heads;
  const int64_t dh = d / heads;
  const int64_t ffn = tc.ffn_dim;
  util::Rng rng(5);
  const std::vector<float> x = RandomBuffer(rng, L * d);
  const std::vector<float> w_dd = RandomBuffer(rng, d * d);
  const std::vector<float> w_in = RandomBuffer(rng, d * ffn);
  const std::vector<float> w_out = RandomBuffer(rng, ffn * d);
  const std::vector<float> kt = RandomBuffer(rng, dh * L);
  const std::vector<float> bias = RandomBuffer(rng, ffn);
  const std::vector<float> gamma(static_cast<size_t>(d), 1.0f);
  const std::vector<float> beta(static_cast<size_t>(d), 0.0f);
  const std::vector<float> scores_in = RandomBuffer(rng, L * L);
  const std::vector<float> f1_in = RandomBuffer(rng, L * ffn);
  std::vector<float> c(static_cast<size_t>(L * std::max(d, std::max(L, ffn))));
  std::vector<float> scores(scores_in.size());
  std::vector<float> f1(f1_in.size());
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

  auto gemm = [&](const char* name, const float* a, int64_t lda,
                  const float* b, int64_t ldb, int64_t m, int64_t k,
                  int64_t n) {
    std::fill(c.begin(), c.end(), 0.0f);  // ServingGemm accumulates into C.
    p->Time(name, [&] {
      tensor::ServingGemm(a, lda, b, ldb, false, c.data(), n, m, k, n);
    });
  };
  for (int pass = 0; pass < passes; ++pass) {
    for (int i = 0; i < kKernelCalls; ++i) {
      gemm("tensor.gemm.qkv", x.data(), d, w_dd.data(), d, L, d, d);
      gemm("tensor.gemm.scores", x.data(), d, kt.data(), L, L, dh, L);
      gemm("tensor.gemm.context", scores_in.data(), L, x.data(), d, L, L, dh);
      gemm("tensor.gemm.ffn_in", x.data(), d, w_in.data(), ffn, L, d, ffn);
      gemm("tensor.gemm.ffn_out", f1_in.data(), ffn, w_out.data(), d, L, ffn,
           d);
      std::memcpy(scores.data(), scores_in.data(), scores.size() * 4);
      p->Time("tensor.softmax", [&] {
        tensor::ScaleSoftmaxRows(scores.data(), L, L, scale);
      });
      std::memcpy(f1.data(), f1_in.data(), f1.size() * 4);
      p->Time("tensor.gelu", [&] {
        tensor::BiasGeluRows(f1.data(), ffn, bias.data(), L, ffn);
      });
      p->Time("tensor.layernorm", [&] {
        tensor::ResidualLayerNormRows(x.data(), x.data(), c.data(), L, d,
                                      gamma.data(), beta.data(), 1e-5f);
      });
    }
  }
  const double qkv = p->MedianOf("tensor.gemm.qkv");
  const double sc = p->MedianOf("tensor.gemm.scores");
  const double ctx = p->MedianOf("tensor.gemm.context");
  const double fin = p->MedianOf("tensor.gemm.ffn_in");
  const double fout = p->MedianOf("tensor.gemm.ffn_out");
  const double sm = p->MedianOf("tensor.softmax");
  const double ge = p->MedianOf("tensor.gelu");
  const double ln = p->MedianOf("tensor.layernorm");
  (*out)["tensor.gemm_us.qkv"] = {qkv, "us"};
  (*out)["tensor.gemm_us.scores"] = {sc, "us"};
  (*out)["tensor.gemm_us.context"] = {ctx, "us"};
  (*out)["tensor.gemm_us.ffn_in"] = {fin, "us"};
  (*out)["tensor.gemm_us.ffn_out"] = {fout, "us"};
  (*out)["tensor.softmax_us"] = {sm, "us"};
  (*out)["tensor.gelu_us"] = {ge, "us"};
  (*out)["tensor.layernorm_us"] = {ln, "us"};
  // Q, K, V and output projections; per head scores, softmax, context;
  // the FFN pair with its GELU; two residual LayerNorms.
  const double per_layer = 4 * qkv +
                           static_cast<double>(heads) * (sc + sm + ctx) +
                           fin + ge + fout + 2 * ln;
  (*out)["tensor.encoder_kernel_sum_us"] = {
      per_layer * static_cast<double>(tc.num_layers), "us"};
  (*out)["tensor.seq_len"] = {static_cast<double>(L), "tokens"};
}

}  // namespace

void RunLayerProbes(const Fixture& fixture,
                    const core::InferenceSession& session,
                    const serve::InferenceServer& server, int passes,
                    SpanLog* trace, MetricMap* out) {
  Prober p(trace);
  for (core::TaskKind task :
       {core::TaskKind::kType, core::TaskKind::kRelation}) {
    ProbeCore(fixture, session, task, passes, &p);
  }
  const double enc_t = p.MedianOf("core.encode.type");
  const double enc_r = p.MedianOf("core.encode.relation");
  const double pred_t = p.MedianOf("core.predict.type");
  const double exp_t = p.MedianOf("core.explain.type");
  const double exp_r = p.MedianOf("core.explain.relation");
  const double search_t = p.MedianOf("core.store.search.type");
  const double search_r = p.MedianOf("core.store.search.relation");
  (*out)["core.encode_us.type"] = {enc_t, "us"};
  (*out)["core.encode_us.relation"] = {enc_r, "us"};
  (*out)["core.predict_us.type"] = {pred_t, "us"};
  (*out)["core.explain_us.type"] = {exp_t, "us"};
  (*out)["core.explain_us.relation"] = {exp_r, "us"};
  (*out)["core.store.search_us.type"] = {search_t, "us"};
  (*out)["core.store.search_us.relation"] = {search_r, "us"};
  (*out)["core.predict_tail_us.type"] = {pred_t - enc_t, "us"};
  (*out)["core.explain_tail_us.type"] = {exp_t - enc_t - search_t, "us"};
  (*out)["core.explain_tail_us.relation"] = {exp_r - enc_r - search_r, "us"};
  (*out)["core.predict_batch8_us"] = {p.MedianOf("core.predict_batch8") / 8.0,
                                      "us"};

  QaTotals qa;
  ProbeQa(fixture, server, passes, &p, &qa);
  (*out)["qa.answer_us.point"] = {p.MedianOf("qa.answer.point"), "us"};
  (*out)["qa.answer_us.find_type"] = {p.MedianOf("qa.answer.find_type"), "us"};
  (*out)["qa.answer_us.find_pairs"] = {p.MedianOf("qa.answer.find_pairs"),
                                       "us"};
  (*out)["qa.surrogate_frac"] = {
      static_cast<double>(qa.surrogate_steps) /
          static_cast<double>(std::max<int64_t>(1, qa.steps)),
      "ratio"};
  (*out)["qa.teacher_calls_per_answer"] = {
      static_cast<double>(qa.teacher_calls) /
          static_cast<double>(std::max<int64_t>(1, qa.answers)),
      "count"};

  // Kernel shapes follow the median sequence length of the probed inputs.
  std::vector<double> lengths;
  for (core::TaskKind task :
       {core::TaskKind::kType, core::TaskKind::kRelation}) {
    for (int id : ProbeIds(fixture, session, task)) {
      lengths.push_back(static_cast<double>(
          session.task_data(task).samples[static_cast<size_t>(id)].seq.ids.size()));
    }
  }
  ProbeTensor(session.config().base_model,
              static_cast<int64_t>(Median(lengths)), passes, &p, out);
}

}  // namespace explainti::e2e
