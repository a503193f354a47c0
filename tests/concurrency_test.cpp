// Stress and differential tests for the concurrent serving core: the
// StructurePool under racing interns, the HomCache (racing counts agree
// with uncached ones, its footprint is tracked, and its stats stay
// consistent while runners count), and the lazily filled Structure caches
// behind decisions and certificate checks.
// Threads here are raw std::threads deliberately oversubscribing the host
// so the races are real even on a single-core runner; the TSan CI job
// runs this whole file.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/determinacy.h"
#include "hom/hom.h"
#include "hom/hom_cache.h"
#include "query/parser.h"
#include "reference/oracles.h"
#include "structs/generator.h"
#include "structs/pool.h"
#include "structs/structure.h"
#include "util/rng.h"

namespace bagdet {
namespace {

std::shared_ptr<Schema> GraphSchema() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  return schema;
}

Structure Cycle(const std::shared_ptr<Schema>& schema, Element n) {
  Structure s(schema);
  for (Element i = 0; i < n; ++i) {
    s.AddFact(0, {i, static_cast<Element>((i + 1) % n)});
  }
  return s;
}

Structure Path(const std::shared_ptr<Schema>& schema, Element n) {
  Structure s(schema, n);
  for (Element i = 0; i + 1 < n; ++i) {
    s.AddFact(0, {i, static_cast<Element>(i + 1)});
  }
  return s;
}

/// A uniformly random relabeling of `s` (isomorphic by construction).
Structure PermutedCopy(const Structure& s, Rng* rng) {
  const std::size_t n = s.DomainSize();
  std::vector<Element> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<Element>(i);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng->Below(i)]);
  }
  return s.MapDomain(perm, n);
}

// --- StructurePool ----------------------------------------------------------

TEST(ConcurrentPoolTest, RacedInternsOfIsomorphicCopiesYieldOneRef) {
  auto schema = GraphSchema();
  // 12 distinct isomorphism classes: cycles and paths of several sizes.
  std::vector<Structure> classes;
  for (Element n = 3; n < 9; ++n) {
    classes.push_back(Cycle(schema, n));
    classes.push_back(Path(schema, n));
  }

  StructurePool pool;
  constexpr std::size_t kThreads = 8;
  constexpr int kRounds = 40;
  std::vector<std::vector<StructureRef>> seen(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      seen[t].assign(classes.size(), kInvalidStructureRef);
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t c = 0; c < classes.size(); ++c) {
          // Fresh permuted copies so every thread canonicalizes its own
          // object and the only shared state is the pool itself.
          StructureRef ref = pool.Intern(PermutedCopy(classes[c], &rng));
          if (seen[t][c] == kInvalidStructureRef) {
            seen[t][c] = ref;
          } else {
            ASSERT_EQ(seen[t][c], ref);
          }
          // Read path, concurrent with other threads' interns.
          ASSERT_EQ(pool.At(ref).NumFacts(), classes[c].NumFacts());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(pool.size(), classes.size());
  // Every thread resolved every class to the same ref.
  for (std::size_t c = 0; c < classes.size(); ++c) {
    for (std::size_t t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][c], seen[0][c]);
    }
    EXPECT_TRUE(reference::IsIsomorphic(pool.At(seen[0][c]), classes[c]));
    EXPECT_EQ(pool.Find(pool.At(seen[0][c])), seen[0][c]);
  }
}

TEST(ConcurrentPoolTest, AtThrowsOnUnknownRef) {
  StructurePool pool;
  EXPECT_THROW(pool.At(0), std::out_of_range);
  StructureRef ref = pool.Intern(Cycle(GraphSchema(), 3));
  EXPECT_NO_THROW(pool.At(ref));
  EXPECT_THROW(pool.At(ref + 1), std::out_of_range);
  EXPECT_THROW(pool.At(kInvalidStructureRef), std::out_of_range);
}

// --- HomCache ---------------------------------------------------------------

TEST(HomCacheTest, FootprintStartsAtZeroAndGrowsWithCounts) {
  auto schema = GraphSchema();
  HomCache cache;
  EXPECT_EQ(cache.ApproxBytes(), 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);

  Rng rng(7);
  std::uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    Structure from = Path(schema, static_cast<Element>(2 + rng.Below(4)));
    Structure to = Cycle(schema, static_cast<Element>(2 + rng.Below(10)));
    const std::uint64_t entries_before = cache.stats().entries;
    cache.Count(cache.pool().Intern(from), cache.pool().Intern(to));
    const HomCache::Stats stats = cache.stats();
    // A new entry adds bytes; a hit leaves the footprint as it was.
    if (stats.entries > entries_before) {
      EXPECT_GT(cache.ApproxBytes(), last);
    } else {
      EXPECT_EQ(cache.ApproxBytes(), last);
    }
    last = cache.ApproxBytes();
    EXPECT_EQ(stats.bytes, last);
  }
  const HomCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, stats.misses);  // Nothing is ever dropped.
  EXPECT_EQ(stats.evictions, 0u);

  // Decomposing a body interns its component classes in the pool and
  // stores nothing in the cache. The loop above interned paths of 2..5
  // elements and cycles of 2..11, so both classes here are new.
  const Structure body = DisjointUnion(Path(schema, 7), Cycle(schema, 13));
  const std::size_t classes = cache.pool().size();
  const std::vector<StructureRef> refs = cache.ComponentRefs(body);
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_NE(refs[0], refs[1]);
  EXPECT_EQ(cache.pool().size(), classes + 2);
  EXPECT_EQ(cache.ApproxBytes(), last);
  // A copy and a relabelled copy resolve to the same classes without
  // growing the pool. Component order follows element order, which a
  // relabelling may change, so those refs are compared as sets.
  const Structure copy = body;
  EXPECT_EQ(cache.ComponentRefs(copy), refs);
  std::vector<StructureRef> relabelled =
      cache.ComponentRefs(PermutedCopy(body, &rng));
  std::vector<StructureRef> sorted = refs;
  std::sort(relabelled.begin(), relabelled.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(relabelled, sorted);
  EXPECT_EQ(cache.pool().size(), classes + 2);
  EXPECT_EQ(cache.ApproxBytes(), last);
}

TEST(HomCacheTest, ConcurrentCountLoopsAgreeWithUncachedCounts) {
  auto schema = GraphSchema();
  HomCache cache;

  std::vector<std::pair<StructureRef, StructureRef>> pairs;
  for (Element from_n = 2; from_n <= 4; ++from_n) {
    for (Element to_n = 2; to_n <= 8; ++to_n) {
      pairs.emplace_back(cache.pool().Intern(Path(schema, from_n)),
                         cache.pool().Intern(Cycle(schema, to_n)));
    }
  }
  std::vector<BigInt> expected;
  for (const auto& [from, to] : pairs) {
    expected.push_back(CountHoms(cache.pool().At(from), cache.pool().At(to)));
  }

  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        for (std::size_t i = 0; i < pairs.size(); ++i) {
          if (cache.Count(pairs[i].first, pairs[i].second) != expected[i]) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const HomCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            kThreads * 20u * static_cast<std::uint64_t>(pairs.size()));
}

TEST(HomCacheTest, StatsStayConsistentWhileRunnersInternAndCount) {
  // Four runners count interned sources against fresh copies of a set of
  // target classes, so each call interns its target (Count(ref, Structure))
  // while the others do the same; a fifth thread polls the reads a serving
  // owner makes meanwhile (rotation checks and stats reports).
  auto schema = GraphSchema();
  HomCache cache;
  std::vector<Structure> sources;
  for (Element n = 2; n <= 4; ++n) sources.push_back(Path(schema, n));
  std::vector<StructureRef> source_refs;
  for (const Structure& source : sources) {
    source_refs.push_back(cache.pool().Intern(source));
  }
  // Twelve pairwise non-isomorphic target classes.
  std::vector<Structure> targets;
  for (Element n = 3; n <= 8; ++n) {
    targets.push_back(Cycle(schema, n));
    targets.push_back(Path(schema, n + 3));
  }
  std::vector<std::vector<BigInt>> expected(sources.size());
  for (std::size_t s = 0; s < sources.size(); ++s) {
    for (const Structure& target : targets) {
      expected[s].push_back(CountHoms(sources[s], target));
    }
  }

  constexpr std::size_t kRunners = 4;
  constexpr int kRounds = 10;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> polls{0};
  std::thread poller([&] {
    HomCache::Stats last;
    std::size_t last_classes = 0;
    std::uint64_t last_pool_bytes = 0;
    while (!done.load()) {
      const HomCache::Stats stats = cache.stats();
      const std::uint64_t bytes = cache.ApproxBytes();
      const std::size_t classes = cache.pool().size();
      const std::uint64_t pool_bytes = cache.pool().ApproxBytes();
      // One snapshot is taken under one lock: every entry came from a
      // miss. Across snapshots everything only grows.
      if (stats.entries > stats.misses || stats.hits < last.hits ||
          stats.misses < last.misses || stats.entries < last.entries ||
          stats.bytes < last.bytes || bytes < stats.bytes ||
          classes < last_classes || pool_bytes < last_pool_bytes) {
        failures.fetch_add(1);
      }
      last = stats;
      last_classes = classes;
      last_pool_bytes = pool_bytes;
      polls.fetch_add(1);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> runners;
  for (std::size_t t = 0; t < kRunners; ++t) {
    runners.emplace_back([&, t] {
      Rng rng(3000 + t);
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t c = 0; c < targets.size(); ++c) {
          const Structure target = PermutedCopy(targets[c], &rng);
          for (std::size_t s = 0; s < sources.size(); ++s) {
            if (cache.Count(source_refs[s], target) != expected[s][c]) {
              failures.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (std::thread& t : runners) t.join();
  done.store(true);
  poller.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(polls.load(), 0);
  const HomCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, sources.size() * targets.size());
  EXPECT_EQ(stats.hits + stats.misses,
            kRunners * kRounds * targets.size() * sources.size());
  EXPECT_EQ(stats.bytes, cache.ApproxBytes());
  // Sources are paths of 2..4 elements and target paths have 6..11, so
  // every class is distinct.
  EXPECT_EQ(cache.pool().size(), sources.size() + targets.size());
}

// --- Lazy Structure caches under concurrent decisions ----------------------

// Example 2 (not determined) plus views that fail containment: q has no
// R-loop and no S-2-cycle, so v3..v5 are irrelevant and never canonicalized
// by the decision.
constexpr const char* kMixedRelevanceProgram =
    "v1() :- P(u,x), R(x,y)\n"
    "v2() :- R(x,y), S(y,z)\n"
    "v3() :- R(x,x)\n"
    "v4() :- S(x,y), S(y,x)\n"
    "v5() :- R(a,a), P(b,c)\n"
    "q()  :- P(u,x), R(x,y), S(y,z)\n";

struct ParsedInstance {
  std::vector<ConjunctiveQuery> views;
  ConjunctiveQuery query;
};

ParsedInstance ParseMixedRelevance() {
  QueryParser parser;
  std::vector<ConjunctiveQuery> rules =
      parser.ParseProgram(kMixedRelevanceProgram);
  ParsedInstance instance;
  instance.query = rules.back();
  rules.pop_back();
  instance.views = std::move(rules);
  return instance;
}

TEST(ConcurrentDecisionTest, CopiesOfOneUncanonicalizedInstanceDecideAlike) {
  // Parsed once and never canonicalized; every thread decides on its own
  // copies, with a private pool or one pool and cache shared by all.
  const ParsedInstance instance = ParseMixedRelevance();
  const DeterminacyResult reference =
      DecideBagDeterminacy(instance.views, instance.query);
  ASSERT_FALSE(reference.determined);
  ASSERT_TRUE(reference.counterexample.has_value());
  ASSERT_EQ(reference.analysis.relevant_views,
            (std::vector<std::size_t>{0, 1}));

  for (bool shared : {false, true}) {
    SCOPED_TRACE(shared ? "shared cache" : "private caches");
    DeterminacyOptions options;
    if (shared) options.shared_hom_cache = std::make_shared<HomCache>();
    constexpr std::size_t kThreads = 4;
    std::vector<std::optional<DeterminacyResult>> results(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        results[t] =
            DecideBagDeterminacy(instance.views, instance.query, options);
      });
    }
    for (std::thread& t : threads) t.join();
    for (const std::optional<DeterminacyResult>& result : results) {
      ASSERT_TRUE(result.has_value());
      EXPECT_FALSE(result->determined);
      EXPECT_EQ(result->analysis.relevant_views,
                reference.analysis.relevant_views);
      ASSERT_TRUE(result->counterexample.has_value());
      EXPECT_FALSE(
          VerifyCounterexample(result->analysis, *result->counterexample)
              .has_value());
      if (!shared) {
        // A shared pool may pick other isomorphic representatives, and
        // with them another valid counterexample; private pools may not.
        EXPECT_EQ(result->counterexample->coeffs_d,
                  reference.counterexample->coeffs_d);
        EXPECT_EQ(result->counterexample->coeffs_d_prime,
                  reference.counterexample->coeffs_d_prime);
      }
    }
  }
}

TEST(ConcurrentDecisionTest, CertificateChecksShareOneAnalysis) {
  // One analysis whose irrelevant views were never canonicalized, read by
  // VerifyCounterexample and CheckWitnessOnStructure threads at once. The
  // witness lists every view, irrelevant ones included, so both entry
  // points count bodies whose canonical form is cold. Expected values come
  // from a separate decision so nothing warms the shared analysis first.
  const ParsedInstance instance = ParseMixedRelevance();
  const DeterminacyResult shared =
      DecideBagDeterminacy(instance.views, instance.query);
  const DeterminacyResult reference =
      DecideBagDeterminacy(instance.views, instance.query);
  ASSERT_TRUE(shared.counterexample.has_value());
  DeterminacyWitness witness;
  witness.exponents = Vec(instance.views.size());
  for (std::size_t i = 0; i < instance.views.size(); ++i) {
    witness.view_indices.push_back(i);
    witness.exponents[i] = Rational(i % 2 == 0 ? 1 : -1);
  }

  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<Structure>> data(kThreads);
  std::vector<std::vector<bool>> expected(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    Rng rng(500 + t);
    for (int round = 0; round < kRounds; ++round) {
      data[t].push_back(RandomStructure(instance.query.schema_ptr(),
                                        2 + rng.Below(3), &rng));
      expected[t].push_back(
          CheckWitnessOnStructure(reference.analysis, witness, data[t].back()));
    }
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        if (t % 2 == 0) {
          if (VerifyCounterexample(shared.analysis, *shared.counterexample)
                  .has_value()) {
            failures.fetch_add(1);
          }
        } else if (CheckWitnessOnStructure(shared.analysis, witness,
                                           data[t][round]) !=
                   expected[t][round]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrentDecisionTest, FrozenBodiesCountAndVerifyConcurrently) {
  // Bodies that repeat component classes, so CountHoms groups them by the
  // cached certificates of the frozen analysis's q and relevant views
  // (v3 failed containment and has none: it groups by equality). Threads
  // count those bodies, and copies of them, on one database while others
  // run VerifyCounterexample on the same analysis.
  QueryParser parser;
  std::vector<ConjunctiveQuery> rules = parser.ParseProgram(
      "v1() :- P(u,x), R(x,y), P(a,b), P(c,d)\n"
      "v2() :- R(x,y), S(y,z), R(a,b)\n"
      "v3() :- R(x,x), P(a,b), P(c,d)\n"
      "q()  :- P(u,x), R(x,y), S(y,z), P(a,b), R(c,d), R(e,f)\n");
  const ConjunctiveQuery query = rules.back();
  rules.pop_back();
  const DeterminacyResult shared = DecideBagDeterminacy(rules, query);
  ASSERT_FALSE(shared.determined);
  ASSERT_TRUE(shared.counterexample.has_value());
  ASSERT_EQ(shared.analysis.relevant_views, (std::vector<std::size_t>{0, 1}));

  std::vector<const ConjunctiveQuery*> bodies{&shared.analysis.query};
  for (const ConjunctiveQuery& view : shared.analysis.views) {
    bodies.push_back(&view);
  }
  ASSERT_NE(shared.analysis.query.FrozenBody().CachedCanonicalData(), nullptr);
  ASSERT_EQ(shared.analysis.views[2].FrozenBody().CachedCanonicalData(),
            nullptr);

  // Expected counts from uncanonicalized copies of the parsed rules; the
  // reference counts also warm the database's lazy index before sharing.
  Rng rng(2026);
  const Structure data = RandomStructure(query.schema_ptr(), 3, &rng);
  std::vector<BigInt> expected;
  expected.push_back(reference::CountHomsNaive(query.FrozenBody(), data));
  for (const ConjunctiveQuery& view : rules) {
    expected.push_back(reference::CountHomsNaive(view.FrozenBody(), data));
  }
  for (std::size_t b = 0; b < bodies.size(); ++b) {
    ASSERT_FALSE(expected[b].IsZero()) << "body " << b;
    ASSERT_EQ(CountHoms(bodies[b]->FrozenBody(), data), expected[b]);
  }

  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        if (t % 2 == 0) {
          if (VerifyCounterexample(shared.analysis, *shared.counterexample)
                  .has_value()) {
            failures.fetch_add(1);
          }
          continue;
        }
        for (std::size_t b = 0; b < bodies.size(); ++b) {
          const Structure copy = bodies[b]->FrozenBody();
          if (bodies[b]->CountHomomorphisms(data) != expected[b] ||
              CountHoms(copy, data) != expected[b]) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Counting never canonicalizes: the irrelevant view stays cold.
  EXPECT_EQ(shared.analysis.views[2].FrozenBody().CachedCanonicalData(),
            nullptr);
}

}  // namespace
}  // namespace bagdet
