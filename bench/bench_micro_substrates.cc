// Substrate micro-benchmarks (google-benchmark): the building blocks the
// reproduction runs on — tensor ops, encoder forward/backward, HNSW vs
// exact retrieval (the ablation behind GE's O(log N) claim), tokenizer,
// serialisation, and graph neighbour sampling.

#include <benchmark/benchmark.h>

#include "ann/flat_index.h"
#include "ann/hnsw_index.h"
#include "data/wiki_generator.h"
#include "graph/column_graph.h"
#include "nn/encoder.h"
#include "tensor/tensor_ops.h"
#include "text/serializer.h"
#include "text/tokenizer.h"
#include "util/rng.h"

using namespace explainti;

namespace {

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  util::Rng rng(1);
  tensor::Tensor a = tensor::Tensor::Randn({n, n}, rng, 1.0f);
  tensor::Tensor b = tensor::Tensor::Randn({n, n}, rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_SoftmaxBackward(benchmark::State& state) {
  util::Rng rng(2);
  for (auto _ : state) {
    tensor::Tensor x = tensor::Tensor::Randn({40, 40}, rng, 1.0f);
    x.set_requires_grad(true);
    tensor::Tensor loss = tensor::Mean(tensor::Softmax(x));
    loss.Backward();
    benchmark::DoNotOptimize(x.grad());
  }
}
BENCHMARK(BM_SoftmaxBackward);

void BM_EncoderForward(benchmark::State& state) {
  util::Rng rng(3);
  nn::TransformerConfig config;
  config.vocab_size = 2000;
  nn::TransformerEncoder encoder(config, rng);
  std::vector<int> ids(40);
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<int>(rng.UniformInt(2000));
  }
  std::vector<int> segments(40, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        encoder.Forward(ids, segments, nn::ExecContext::Eval(&rng)));
  }
}
BENCHMARK(BM_EncoderForward);

void BM_EncoderTrainStep(benchmark::State& state) {
  util::Rng rng(4);
  nn::TransformerConfig config;
  config.vocab_size = 2000;
  nn::TransformerEncoder encoder(config, rng);
  std::vector<int> ids(40);
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<int>(rng.UniformInt(2000));
  }
  std::vector<int> segments(40, 0);
  for (auto _ : state) {
    tensor::Tensor out =
        encoder.Forward(ids, segments, nn::ExecContext::Train(rng));
    tensor::Tensor loss = tensor::Mean(out);
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_EncoderTrainStep);

void PopulateIndex(ann::VectorIndex* index, int n, int dim, uint64_t seed) {
  util::Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::vector<float> v(static_cast<size_t>(dim));
    for (float& x : v) x = static_cast<float>(rng.Normal());
    index->Add(i, v);
  }
}

void BM_HnswBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ann::HnswIndex index;
    PopulateIndex(&index, n, 64, 5);
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HnswBuild)->Arg(1000);

void BM_HnswSearch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ann::HnswIndex index;
  PopulateIndex(&index, n, 64, 6);
  util::Rng rng(7);
  std::vector<float> query(64);
  for (float& x : query) x = static_cast<float>(rng.Normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Search(query, 10));
  }
}
BENCHMARK(BM_HnswSearch)->Arg(1000)->Arg(10000);

void BM_FlatSearch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ann::FlatIndex index;
  PopulateIndex(&index, n, 64, 6);
  util::Rng rng(7);
  std::vector<float> query(64);
  for (float& x : query) x = static_cast<float>(rng.Normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Search(query, 10));
  }
}
BENCHMARK(BM_FlatSearch)->Arg(1000)->Arg(10000);

void BM_Tokenizer(benchmark::State& state) {
  auto vocab = std::make_shared<text::Vocab>();
  for (const char* word : {"nba", "draft", "player", "team", "lakers",
                           "celtics", "title", "header", "cell"}) {
    vocab->AddToken(word);
  }
  text::WordPieceTokenizer tokenizer(vocab);
  const std::string input =
      "title 1990 nba draft header player cell james smith mary jones";
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Tokenize(input));
  }
}
BENCHMARK(BM_Tokenizer);

void BM_GraphSampling(benchmark::State& state) {
  data::WikiTableOptions options;
  options.num_tables = 120;
  const data::TableCorpus corpus = data::GenerateWikiTableCorpus(options);
  graph::ColumnGraph graph;
  for (size_t i = 0; i < corpus.type_samples.size(); ++i) {
    const data::TypeSample& s = corpus.type_samples[i];
    graph.AddSample(static_cast<int>(i),
                    corpus.tables[static_cast<size_t>(s.table_index)].title,
                    corpus.tables[static_cast<size_t>(s.table_index)]
                        .columns[static_cast<size_t>(s.column_index)]
                        .header);
  }
  util::Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.SampleNeighbors(
        static_cast<int>(rng.UniformInt(graph.num_samples())), 16, rng));
  }
}
BENCHMARK(BM_GraphSampling);

void BM_Serialization(benchmark::State& state) {
  data::WikiTableOptions options;
  options.num_tables = 8;
  const data::TableCorpus corpus = data::GenerateWikiTableCorpus(options);
  auto vocab = std::make_shared<text::Vocab>();
  text::WordPieceTokenizer tokenizer(vocab);
  text::SequenceSerializer serializer(&tokenizer, 40);
  for (auto _ : state) {
    for (const data::TypeSample& sample : corpus.type_samples) {
      benchmark::DoNotOptimize(
          serializer.SerializeColumn(corpus.ColumnTextOf(sample)));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.type_samples.size()));
}
BENCHMARK(BM_Serialization);

}  // namespace

BENCHMARK_MAIN();
