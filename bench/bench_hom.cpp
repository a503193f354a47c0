// Benchmarks for the homomorphism-counting engine — the workhorse behind
// every quantity in the paper (query answers, evaluation matrices,
// containment). No paper table corresponds to these numbers (the paper has
// no machine evaluation); they document the substrate's scaling.

#include <benchmark/benchmark.h>

#include "hom/hom.h"
#include "structs/generator.h"
#include "util/rng.h"

namespace bagdet {
namespace {

std::shared_ptr<Schema> GraphSchema() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  return schema;
}

Structure PathGraph(const std::shared_ptr<Schema>& schema, Element edges) {
  Structure s(schema);
  for (Element i = 0; i < edges; ++i) {
    s.AddFact(0, {i, static_cast<Element>(i + 1)});
  }
  return s;
}

Structure Clique(const std::shared_ptr<Schema>& schema, Element n) {
  Structure s(schema, n);
  for (Element i = 0; i < n; ++i) {
    for (Element j = 0; j < n; ++j) {
      if (i != j) s.AddFact(0, {i, j});
    }
  }
  return s;
}

void BM_PathIntoClique(benchmark::State& state) {
  auto schema = GraphSchema();
  Structure path = PathGraph(schema, static_cast<Element>(state.range(0)));
  Structure clique = Clique(schema, static_cast<Element>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountHoms(path, clique));
  }
  state.SetLabel("path_edges=" + std::to_string(state.range(0)) +
                 " clique=" + std::to_string(state.range(1)));
}
BENCHMARK(BM_PathIntoClique)
    ->Args({4, 8})
    ->Args({8, 8})
    ->Args({16, 8})
    ->Args({32, 8})
    ->Args({16, 16})
    ->Args({16, 32});

void BM_RandomIntoRandom(benchmark::State& state) {
  auto schema = GraphSchema();
  Rng rng(42);
  Structure from =
      RandomConnectedStructure(schema, static_cast<std::size_t>(state.range(0)),
                               &rng, 1, 3);
  Structure to = RandomStructure(schema, static_cast<std::size_t>(state.range(1)),
                                 &rng, 1, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountHoms(from, to));
  }
}
BENCHMARK(BM_RandomIntoRandom)->Args({3, 8})->Args({4, 8})->Args({5, 8})
    ->Args({4, 16})->Args({4, 32});

void BM_ExistsHomEarlyExit(benchmark::State& state) {
  auto schema = GraphSchema();
  Structure path = PathGraph(schema, static_cast<Element>(state.range(0)));
  Structure clique = Clique(schema, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExistsHom(path, clique));
  }
}
BENCHMARK(BM_ExistsHomEarlyExit)->Arg(8)->Arg(32)->Arg(128);

void BM_InjectiveHoms(benchmark::State& state) {
  auto schema = GraphSchema();
  Structure path = PathGraph(schema, static_cast<Element>(state.range(0)));
  Structure clique = Clique(schema, static_cast<Element>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountInjectiveHoms(path, clique));
  }
}
BENCHMARK(BM_InjectiveHoms)->Args({3, 6})->Args({4, 7})->Args({5, 8});

void BM_MultiComponentDecomposition(benchmark::State& state) {
  // Lemma 4(5) decomposition: many small components multiply.
  auto schema = GraphSchema();
  Structure from(schema);
  for (int c = 0; c < state.range(0); ++c) {
    from = DisjointUnion(from, PathGraph(schema, 2));
  }
  Structure to = Clique(schema, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountHoms(from, to));
  }
}
BENCHMARK(BM_MultiComponentDecomposition)->Arg(2)->Arg(8)->Arg(32);

}  // namespace
}  // namespace bagdet

BENCHMARK_MAIN();
