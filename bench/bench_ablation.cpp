// Ablation benchmarks for the design choices listed in README.md, "Scope
// and design choices":
//  1. hom counting by variable elimination (default) vs. per-hom
//     enumeration — the reason astronomically-counted instances terminate;
//  2. symbolic Lemma-4 evaluation on StructureExpr terms vs.
//     materialize-then-count — the reason the good basis is usable at all;
//  3. the tiered distinguisher search: cheap self-candidates vs. jumping
//     straight into the exhaustive induced-substructure sweep.

#include <benchmark/benchmark.h>

#include "core/distinguisher.h"
#include "hom/hom.h"
#include "hom/symbolic.h"
#include "structs/generator.h"
#include "structs/structure_expr.h"
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

// --- Ablation 1: variable elimination vs. enumeration. -------------------

void BM_CountVariableElimination(benchmark::State& state) {
  auto schema = GraphSchema();
  Structure path = PathGraph(schema, static_cast<Element>(state.range(0)));
  Structure clique = Clique(schema, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountHoms(path, clique));
  }
  state.SetLabel("count ~ 5*4^" + std::to_string(state.range(0)));
}
BENCHMARK(BM_CountVariableElimination)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void BM_CountEnumeration(benchmark::State& state) {
  auto schema = GraphSchema();
  Structure path = PathGraph(schema, static_cast<Element>(state.range(0)));
  Structure clique = Clique(schema, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountHomsByEnumeration(path, clique));
  }
  state.SetLabel("count ~ 5*4^" + std::to_string(state.range(0)) +
                 " (per-hom cost)");
}
// Enumeration visits every hom: 5*4^12 ≈ 84M already takes seconds, so the
// sweep stops where variable elimination is still microseconds.
BENCHMARK(BM_CountEnumeration)->Arg(4)->Arg(8)->Arg(10);

// --- Ablation 2: symbolic vs. materialized evaluation. --------------------

void BM_SymbolicCountOnScaledTerm(benchmark::State& state) {
  auto schema = GraphSchema();
  Structure edge(schema);
  edge.AddFact(0, {0, 1});
  Structure probe = PathGraph(schema, 2);
  StructureExpr term = StructureExpr::Scalar(
      BigInt(state.range(0)), StructureExpr::Base(Clique(schema, 4)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountHomsSymbolic(probe, term));
  }
  state.SetLabel("t = " + std::to_string(state.range(0)) + ", symbolic");
}
BENCHMARK(BM_SymbolicCountOnScaledTerm)->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

void BM_MaterializedCountOnScaledTerm(benchmark::State& state) {
  auto schema = GraphSchema();
  Structure probe = PathGraph(schema, 2);
  StructureExpr term = StructureExpr::Scalar(
      BigInt(state.range(0)), StructureExpr::Base(Clique(schema, 4)));
  for (auto _ : state) {
    std::optional<Structure> m = term.Materialize(1u << 20);
    benchmark::DoNotOptimize(CountHoms(probe, *m));
  }
  state.SetLabel("t = " + std::to_string(state.range(0)) + ", materialized");
}
BENCHMARK(BM_MaterializedCountOnScaledTerm)->Arg(8)->Arg(64)->Arg(512);

void BM_SymbolicCountOnPowerTerm(benchmark::State& state) {
  // (K4)^t: materialization is 4^t elements; symbolic stays flat.
  auto schema = GraphSchema();
  Structure probe = PathGraph(schema, 2);
  StructureExpr term = StructureExpr::Power(
      StructureExpr::Base(Clique(schema, 4)),
      static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountHomsSymbolic(probe, term));
  }
  state.SetLabel("(K4)^" + std::to_string(state.range(0)) +
                 " — materialized size 4^" + std::to_string(state.range(0)));
}
BENCHMARK(BM_SymbolicCountOnPowerTerm)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

// --- Ablation 3: distinguisher tiers. -------------------------------------

void BM_DistinguisherWithCheapTier(benchmark::State& state) {
  // Default options: tier 0 (the inputs themselves) usually hits.
  auto schema = GraphSchema();
  Structure a = PathGraph(schema, static_cast<Element>(state.range(0)));
  Structure b = Clique(schema, 3);
  DistinguisherOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindDistinguisher(a, b, options));
  }
}
BENCHMARK(BM_DistinguisherWithCheapTier)->Arg(4)->Arg(8)->Arg(12);

void BM_DistinguisherSubsetSweepWorstCase(benchmark::State& state) {
  // Cycles of close lengths defeat the cheap candidates and exercise the
  // induced-substructure sweep (2^n candidates).
  auto schema = GraphSchema();
  auto cycle = [&](Element n) {
    Structure s(schema);
    for (Element i = 0; i < n; ++i) {
      s.AddFact(0, {i, static_cast<Element>((i + 1) % n)});
    }
    return s;
  };
  Structure a = cycle(static_cast<Element>(state.range(0)));
  Structure b = cycle(static_cast<Element>(2 * state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindDistinguisher(a, b));
  }
  state.SetLabel("C" + std::to_string(state.range(0)) + " vs C" +
                 std::to_string(2 * state.range(0)));
}
BENCHMARK(BM_DistinguisherSubsetSweepWorstCase)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

}  // namespace
}  // namespace bagdet

BENCHMARK_MAIN();
