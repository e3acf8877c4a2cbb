#include "bench/bench_common.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "util/string_util.h"

namespace explainti::bench {

Scale GetScale() {
  const char* env = std::getenv("EXPLAINTI_BENCH_SCALE");
  const std::string requested = env == nullptr ? "quick" : env;
  if (requested == "full") {
    return Scale{"full", /*wiki_tables=*/400, /*git_tables=*/220,
                 /*epochs=*/16, /*pretrain_epochs=*/3,
                 /*sweep_tables=*/200, /*sweep_epochs=*/10};
  }
  return Scale{"quick", /*wiki_tables=*/240, /*git_tables=*/130,
               /*epochs=*/10, /*pretrain_epochs=*/2,
               /*sweep_tables=*/120, /*sweep_epochs=*/6};
}

data::TableCorpus MakeWikiCorpus(const Scale& scale) {
  data::WikiTableOptions options;
  options.num_tables = scale.wiki_tables;
  return data::GenerateWikiTableCorpus(options);
}

data::TableCorpus MakeGitCorpus(const Scale& scale) {
  data::GitTableOptions options;
  options.num_tables = scale.git_tables;
  return data::GenerateGitTableCorpus(options);
}

core::ExplainTiConfig MakeExplainTiConfig(const Scale& scale,
                                          const std::string& base_model) {
  core::ExplainTiConfig config;
  config.base_model = base_model;
  config.epochs = scale.epochs;
  config.pretrain_epochs = scale.pretrain_epochs;
  return config;
}

baselines::TransformerBaselineConfig MakeBaselineConfig(
    const Scale& scale, const std::string& base_model) {
  baselines::TransformerBaselineConfig config;
  config.base_model = base_model;
  config.epochs = scale.epochs;
  config.pretrain_epochs = scale.pretrain_epochs;
  return config;
}

std::string F3(double value) { return util::FormatDouble(value, 3); }
std::string F1(double value) { return util::FormatDouble(value, 1); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t index =
      static_cast<size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

std::string HostMetaJson() {
// Stamped by bench/CMakeLists.txt from the configured build; the
// fallbacks only apply when the library is built outside that file.
#ifndef EXPLAINTI_BUILD_TYPE
#define EXPLAINTI_BUILD_TYPE "unknown"
#endif
#ifndef EXPLAINTI_BUILD_FLAGS
#define EXPLAINTI_BUILD_FLAGS ""
#endif
  std::ostringstream os;
  os << "\"host\": {\"hardware_threads\": "
     << std::max(1u, std::thread::hardware_concurrency())
     << ", \"build_type\": \"" << EXPLAINTI_BUILD_TYPE
     << "\", \"build_flags\": \"" << EXPLAINTI_BUILD_FLAGS
     << "\", \"compiler\": \"" << __VERSION__ << "\"}";
  return os.str();
}

eval::ExplanationDataset BuildExplanationDataset(
    const core::TaskData& task,
    const std::function<std::string(int)>& explain) {
  eval::ExplanationDataset dataset;
  dataset.num_labels = task.num_labels;
  dataset.multi_label = task.multi_label;
  for (int id : task.train_ids) {
    dataset.train_texts.push_back(explain(id));
    dataset.train_labels.push_back(
        task.samples[static_cast<size_t>(id)].labels);
  }
  for (int id : task.test_ids) {
    dataset.test_texts.push_back(explain(id));
    dataset.test_labels.push_back(
        task.samples[static_cast<size_t>(id)].labels);
  }
  return dataset;
}

}  // namespace explainti::bench
