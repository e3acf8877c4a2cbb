// Benchmarks the sharded, snapshot-persistent embedding store and emits
// BENCH_store.json: build latency, rebuild latency under a live pinned
// reader, search p50/p99, recall@10 against an exact FlatIndex over the
// whole corpus, save/load latency, and the hot-swap path (Load
// publishing over a live store while a pinned reader keeps answering
// from the old generation).
//
// Hard gates (the run aborts, it does not just report):
//   * a saved store reloaded from disk answers every probe with
//     bit-identical ids and similarity bits (the roundtrip_identical
//     field records the verdict check_bench.py re-checks);
//   * a pinned View never observes the generation swap underneath it,
//     neither during a Rebuild nor during a Load;
//   * the steady-state serial search path performs zero heap
//     allocations per query.
//
// Corpus sizes: 10k always; 100k too unless EXPLAINTI_BENCH_SCALE=quick
// wants the short run — then the 100k row is skipped and the JSON says
// so via the "corpora" field (no silent caps).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "ann/flat_index.h"
#include "bench/bench_common.h"
#include "core/embedding_store.h"
#include "util/alloc_counter.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace explainti;

namespace {

constexpr int kDim = 16;
constexpr int kK = 10;
constexpr int kNumQueries = 64;
constexpr int kSearchReps = 200;
/// Recall floor also enforced by ci/check_bench.py; keep in sync.
constexpr double kRecallFloor = 0.80;

struct Corpus {
  std::vector<int> ids;
  std::vector<std::vector<float>> rows;
  std::vector<std::vector<float>> queries;
  /// Exact top-k ids per query over the whole corpus (ground truth).
  std::vector<std::vector<int64_t>> truth;
};

Corpus MakeCorpus(int n) {
  Corpus corpus;
  util::Rng rng(0xC0FFEE ^ static_cast<uint64_t>(n));
  corpus.rows.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    corpus.ids.push_back(i);
    auto& row = corpus.rows[static_cast<size_t>(i)];
    row.resize(kDim);
    for (float& x : row) x = static_cast<float>(rng.Normal());
  }
  for (int q = 0; q < kNumQueries; ++q) {
    std::vector<float> query(kDim);
    for (float& x : query) x = static_cast<float>(rng.Normal());
    corpus.queries.push_back(std::move(query));
  }
  // Exact ground truth from a flat index over the full corpus.
  ann::FlatIndex exact;
  for (int i = 0; i < n; ++i) exact.Add(i, corpus.rows[static_cast<size_t>(i)]);
  for (const auto& query : corpus.queries) {
    std::vector<int64_t> ids;
    for (const ann::SearchResult& hit : exact.Search(query, kK)) {
      ids.push_back(hit.id);
    }
    corpus.truth.push_back(std::move(ids));
  }
  return corpus;
}

core::EmbeddingStore::Options StoreOptions(int shards) {
  core::EmbeddingStore::Options options;
  options.num_segments = shards;
  options.hnsw.M = 8;
  options.hnsw.ef_construction = 48;
  options.hnsw.ef_search = 64;
  return options;
}

struct ProbeResult {
  std::vector<int64_t> ids;
  std::vector<uint32_t> sim_bits;
  bool operator==(const ProbeResult&) const = default;
};

ProbeResult Probe(const core::EmbeddingStore::View& view,
                  const std::vector<float>& query) {
  ProbeResult probe;
  for (const ann::SearchResult& hit : view.Search(query, kK)) {
    probe.ids.push_back(hit.id);
    uint32_t bits = 0;
    std::memcpy(&bits, &hit.similarity, sizeof(bits));
    probe.sim_bits.push_back(bits);
  }
  return probe;
}

double Percentile(std::vector<double>& sorted_values, double p) {
  std::sort(sorted_values.begin(), sorted_values.end());
  const size_t index = static_cast<size_t>(
      p * static_cast<double>(sorted_values.size() - 1));
  return sorted_values[index];
}

struct Row {
  int corpus = 0;
  int shards = 0;
  double build_ms = 0.0;
  double reader_rebuild_ms = 0.0;
  double search_p50_us = 0.0;
  double search_p99_us = 0.0;
  double recall_at_10 = 0.0;
  double save_ms = 0.0;
  double load_ms = 0.0;
  double swap_ms = 0.0;
  bool roundtrip_identical = false;
  int64_t steady_state_allocations = -1;
};

Row RunConfig(const Corpus& corpus, int shards) {
  Row row;
  row.corpus = static_cast<int>(corpus.ids.size());
  row.shards = shards;

  core::EmbeddingStore store(StoreOptions(shards));
  {
    util::WallTimer timer;
    store.Rebuild(corpus.ids, corpus.rows);
    row.build_ms = timer.ElapsedSeconds() * 1e3;
  }
  CHECK(store.hnsw_ready());
  const core::EmbeddingStore::View view = store.view();

  // Search latency distribution over repeated query sweeps.
  {
    std::vector<double> micros;
    std::vector<ann::SearchResult> out;
    for (int rep = 0; rep < kSearchReps; ++rep) {
      const auto& query =
          corpus.queries[static_cast<size_t>(rep) % corpus.queries.size()];
      util::WallTimer timer;
      view.SearchInto(query, kK, -1, &out);
      micros.push_back(timer.ElapsedSeconds() * 1e6);
    }
    row.search_p50_us = Percentile(micros, 0.50);
    row.search_p99_us = Percentile(micros, 0.99);
  }

  // Recall@10 against the exact ground truth.
  {
    int64_t found = 0, wanted = 0;
    for (size_t q = 0; q < corpus.queries.size(); ++q) {
      const ProbeResult probe = Probe(view, corpus.queries[q]);
      for (int64_t id : corpus.truth[q]) {
        ++wanted;
        if (std::find(probe.ids.begin(), probe.ids.end(), id) !=
            probe.ids.end()) {
          ++found;
        }
      }
    }
    row.recall_at_10 =
        static_cast<double>(found) / static_cast<double>(wanted);
  }

  // Zero-allocation steady state (serial path: 1 thread).
  {
    util::SetGlobalThreadCount(1);
    std::vector<ann::SearchResult> out;
    for (int warm = 0; warm < 8; ++warm) {
      view.SearchInto(corpus.queries[static_cast<size_t>(warm)], kK, -1,
                      &out);
    }
    util::ScopedAllocCounter counter;
    for (int rep = 0; rep < 64; ++rep) {
      view.SearchInto(
          corpus.queries[static_cast<size_t>(rep) % corpus.queries.size()],
          kK, -1, &out);
    }
    row.steady_state_allocations = counter.Delta().allocations;
    CHECK_EQ(row.steady_state_allocations, 0)
        << "steady-state serial search must not allocate";
  }

  // Rebuild under a live pinned reader: change one row, re-publish, and
  // verify the reader keeps answering from the old generation for the
  // whole rebuild.
  {
    std::vector<std::vector<float>> dirty_rows = corpus.rows;
    dirty_rows[3][0] += 1.0f;
    const core::EmbeddingStore::View pinned = store.view();
    const uint64_t pinned_generation = pinned.generation();
    std::atomic<bool> stop{false};
    std::atomic<int64_t> reader_queries{0};
    std::thread reader([&] {
      std::vector<ann::SearchResult> out;
      while (!stop.load(std::memory_order_relaxed)) {
        pinned.SearchInto(corpus.queries[0], kK, -1, &out);
        CHECK_EQ(pinned.generation(), pinned_generation)
            << "pinned view observed a generation swap";
        reader_queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
    util::WallTimer timer;
    store.Rebuild(corpus.ids, dirty_rows);
    row.reader_rebuild_ms = timer.ElapsedSeconds() * 1e3;
    stop.store(true);
    reader.join();
    CHECK_GT(reader_queries.load(), 0);
    // Restore the original contents for the persistence phase.
    store.Rebuild(corpus.ids, corpus.rows);
  }

  // Persistence roundtrip + hot swap under a live reader.
  {
    const std::string dir =
        "bench_store_" + std::to_string(row.corpus) + "_" +
        std::to_string(shards);
    std::system(("rm -rf " + dir).c_str());
    std::vector<ProbeResult> before;
    for (const auto& query : corpus.queries) {
      before.push_back(Probe(store.view(), query));
    }
    {
      util::WallTimer timer;
      CHECK(store.Save(dir).ok());
      row.save_ms = timer.ElapsedSeconds() * 1e3;
    }
    core::EmbeddingStore loaded(StoreOptions(shards));
    {
      util::WallTimer timer;
      CHECK(loaded.Load(dir).ok());
      row.load_ms = timer.ElapsedSeconds() * 1e3;
    }
    row.roundtrip_identical = true;
    for (size_t q = 0; q < corpus.queries.size(); ++q) {
      if (!(Probe(loaded.view(), corpus.queries[q]) == before[q])) {
        row.roundtrip_identical = false;
      }
    }
    CHECK(row.roundtrip_identical)
        << "reloaded store diverged from the store that saved it";

    // Hot swap: Load() over a store that is actively serving. The
    // pinned reader keeps its snapshot; swap_ms is the full re-point
    // latency (manifest + segment mmaps + publish).
    const core::EmbeddingStore::View pinned = loaded.view();
    const uint64_t pinned_generation = pinned.generation();
    {
      util::WallTimer timer;
      CHECK(loaded.Load(dir).ok());
      row.swap_ms = timer.ElapsedSeconds() * 1e3;
    }
    CHECK_EQ(pinned.generation(), pinned_generation);
    CHECK_GT(loaded.view().generation(), pinned_generation);
    std::system(("rm -rf " + dir).c_str());
  }
  return row;
}

void WriteJson(const std::vector<Row>& rows, const std::vector<int>& corpora) {
  std::ofstream json("BENCH_store.json");
  CHECK(json.good()) << "cannot open BENCH_store.json";
  json << "{\n  " << bench::HostMetaJson() << ",\n  \"dim\": " << kDim
       << ",\n  \"k\": " << kK << ",\n  \"recall_floor\": " << kRecallFloor
       << ",\n  \"corpora\": [";
  for (size_t i = 0; i < corpora.size(); ++i) {
    json << (i == 0 ? "" : ", ") << corpora[i];
  }
  json << "],\n  \"store\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "    {\"corpus\": " << r.corpus << ", \"shards\": " << r.shards
         << ", \"build_ms\": " << r.build_ms
         << ", \"reader_rebuild_ms\": " << r.reader_rebuild_ms
         << ", \"search_p50_us\": " << r.search_p50_us
         << ", \"search_p99_us\": " << r.search_p99_us
         << ", \"recall_at_10\": " << r.recall_at_10
         << ", \"save_ms\": " << r.save_ms << ", \"load_ms\": " << r.load_ms
         << ", \"swap_ms\": " << r.swap_ms << ", \"roundtrip_identical\": "
         << (r.roundtrip_identical ? "true" : "false")
         << ", \"steady_state_allocations\": " << r.steady_state_allocations
         << "}" << (i + 1 == rows.size() ? "" : ",") << "\n";
  }
  json << "  ]\n}\n";
}

}  // namespace

int main() {
  std::vector<int> corpora = {10000, 100000};
  if (bench::GetScale().name == "quick") {
    std::cerr << "[store] EXPLAINTI_BENCH_SCALE=quick: skipping the 100k "
                 "corpus (run with EXPLAINTI_BENCH_SCALE=full for it)\n";
    corpora = {10000};
  }

  std::vector<Row> rows;
  for (int n : corpora) {
    std::cerr << "[store] generating corpus n=" << n << " dim=" << kDim
              << "\n";
    const Corpus corpus = MakeCorpus(n);
    for (int shards : {1, 8}) {
      const Row row = RunConfig(corpus, shards);
      std::cerr << "[store] n=" << n << " shards=" << shards << " build="
                << row.build_ms << "ms rebuild_under_reader="
                << row.reader_rebuild_ms << "ms p50="
                << row.search_p50_us << "us p99="
                << row.search_p99_us << "us recall@10=" << row.recall_at_10
                << " save=" << row.save_ms << "ms load=" << row.load_ms
                << "ms swap=" << row.swap_ms << "ms\n";
      CHECK_GE(row.recall_at_10, kRecallFloor)
          << "recall@10 below floor at n=" << n << " shards=" << shards;
      rows.push_back(row);
    }
  }
  WriteJson(rows, corpora);
  std::cerr << "[store] wrote BENCH_store.json\n";
  return 0;
}
