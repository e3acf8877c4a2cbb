#ifndef EXPLAINTI_BENCH_BENCH_COMMON_H_
#define EXPLAINTI_BENCH_BENCH_COMMON_H_

#include <functional>
#include <string>
#include <vector>

#include "baselines/transformer_baseline.h"
#include "core/config.h"
#include "core/explain_ti_model.h"
#include "data/git_generator.h"
#include "data/wiki_generator.h"
#include "eval/sufficiency.h"

namespace explainti::bench {

/// Workload scale shared by every benchmark binary. Controlled by the
/// EXPLAINTI_BENCH_SCALE environment variable:
///   "quick" (default) — minutes-scale runs that reproduce the paper's
///                       qualitative shape on a laptop CPU;
///   "full"            — larger corpora and longer training for tighter
///                       numbers (several times slower).
struct Scale {
  std::string name;
  int wiki_tables;
  int git_tables;
  int epochs;
  int pretrain_epochs;
  /// Reduced scale for the 17-training sensitivity sweeps (Figure 7).
  int sweep_tables;
  int sweep_epochs;
};

/// Reads EXPLAINTI_BENCH_SCALE and returns the corresponding scale.
Scale GetScale();

/// Corpus factories at benchmark scale (fixed seeds: every binary sees
/// identical data).
data::TableCorpus MakeWikiCorpus(const Scale& scale);
data::TableCorpus MakeGitCorpus(const Scale& scale);

/// Config factories.
core::ExplainTiConfig MakeExplainTiConfig(const Scale& scale,
                                          const std::string& base_model);
baselines::TransformerBaselineConfig MakeBaselineConfig(
    const Scale& scale, const std::string& base_model);

/// "0.944"-style fixed-point formatting used throughout the tables.
std::string F3(double value);
std::string F1(double value);

/// Nearest-rank percentile of `values` (taken by value and sorted): the
/// element at index round(q * (n - 1)), so q = 0.5 of {1, 2, 3, 4} is 3.
/// Returns 0 for an empty set.
double Percentile(std::vector<double> values, double q);

/// One `"host": {...}` JSON member (no trailing comma) recording the
/// machine and build every BENCH_*.json was produced on: hardware-thread
/// count, CMake build type, the compiler flags it implies, and the
/// compiler itself. Checked-in bench numbers are only comparable with
/// this context — a 1-thread container and a 16-core bare-metal host
/// produce wildly different absolute rows (see ROADMAP caveat).
std::string HostMetaJson();

/// Builds a FRESH sufficiency dataset from per-sample explanation texts.
/// `explain(sample_id)` must return the explanation text for one sample
/// of `kind`.
eval::ExplanationDataset BuildExplanationDataset(
    const core::TaskData& task,
    const std::function<std::string(int)>& explain);

}  // namespace explainti::bench

#endif  // EXPLAINTI_BENCH_BENCH_COMMON_H_
