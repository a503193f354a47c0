// Stress and differential tests for the concurrent serving core: the
// sharded StructurePool under racing interns and the size-bounded
// HomCache (budgets respected, evicted entries recompute identically).
// Threads here are raw std::threads deliberately oversubscribing the host
// so the races are real even on a single-core runner; the TSan CI job
// runs this whole file.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "hom/hom.h"
#include "hom/hom_cache.h"
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

// --- Sharded StructurePool --------------------------------------------------

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
          // Lock-free read path, concurrent with other threads' interns.
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
    EXPECT_TRUE(IsIsomorphic(pool.At(seen[0][c]), classes[c]));
    EXPECT_EQ(pool.FindKey(pool.KeyOf(seen[0][c])), seen[0][c]);
  }
}

TEST(ConcurrentPoolTest, AtThrowsOnUnknownRef) {
  StructurePool pool;
  EXPECT_THROW(pool.At(0), std::out_of_range);
  StructureRef ref = pool.Intern(Cycle(GraphSchema(), 3));
  EXPECT_NO_THROW(pool.At(ref));
  EXPECT_THROW(pool.At(ref + 1), std::out_of_range);
  EXPECT_THROW(pool.KeyOf(kInvalidStructureRef - StructurePool::kNumShards),
               std::out_of_range);
}

// --- Bounded HomCache -------------------------------------------------------

TEST(BoundedHomCacheTest, EntryBudgetIsRespectedAndEvictedPairsRecompute) {
  auto schema = GraphSchema();
  HomCache cache;
  cache.set_max_entries(16);  // 2 per shard.

  std::vector<std::pair<StructureRef, StructureRef>> pairs;
  std::vector<BigInt> expected;
  for (Element from_n = 2; from_n <= 5; ++from_n) {
    for (Element to_n = 2; to_n <= 9; ++to_n) {
      StructureRef from = cache.Intern(Path(schema, from_n));
      StructureRef to = cache.Intern(Cycle(schema, to_n));
      pairs.emplace_back(from, to);
      expected.push_back(
          CountHoms(cache.pool().At(from), cache.pool().At(to)));
    }
  }
  // First pass fills far past the budget; entries must stay bounded.
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(cache.Count(pairs[i].first, pairs[i].second), expected[i]);
  }
  HomCache::Stats after_fill = cache.stats();
  EXPECT_LE(after_fill.entries, 16u);
  EXPECT_GT(after_fill.evictions, 0u);
  EXPECT_EQ(after_fill.misses, pairs.size());

  // Second pass: evicted pairs re-miss but recompute identical counts.
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(cache.Count(pairs[i].first, pairs[i].second), expected[i]);
  }
  HomCache::Stats after_requery = cache.stats();
  EXPECT_GT(after_requery.misses, after_fill.misses);  // Some were evicted...
  EXPECT_GT(after_requery.hits, after_fill.hits);      // ...some survived.
  EXPECT_LE(cache.stats().entries, 16u);

  cache.ResetStats();
  HomCache::Stats reset = cache.stats();
  EXPECT_EQ(reset.hits, 0u);
  EXPECT_EQ(reset.misses, 0u);
  EXPECT_EQ(reset.evictions, 0u);
  EXPECT_EQ(reset.entries, after_requery.entries);  // Footprint unaffected.
}

TEST(BoundedHomCacheTest, ByteBudgetEvictsAndFootprintIsTracked) {
  auto schema = GraphSchema();
  HomCache cache;
  HomCache::Stats empty = cache.stats();
  EXPECT_EQ(empty.entries, 0u);
  EXPECT_EQ(empty.bytes, 0u);

  cache.set_max_bytes(8 * 300);  // ~2 smallish entries per shard.
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    Structure from = Path(schema, static_cast<Element>(2 + rng.Below(4)));
    Structure to = Cycle(schema, static_cast<Element>(2 + rng.Below(10)));
    cache.Count(cache.Intern(from), cache.Intern(to));
  }
  HomCache::Stats stats = cache.stats();
  EXPECT_LE(stats.bytes, 8u * 300u);
  EXPECT_GT(stats.entries, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(BoundedHomCacheTest, ConcurrentCountLoopsAgreeWithUncachedCounts) {
  auto schema = GraphSchema();
  HomCache cache;
  cache.set_max_entries(64);  // Force eviction churn during the race.

  Rng seed_rng(99);
  std::vector<std::pair<StructureRef, StructureRef>> pairs;
  for (Element from_n = 2; from_n <= 4; ++from_n) {
    for (Element to_n = 2; to_n <= 8; ++to_n) {
      pairs.emplace_back(cache.Intern(Path(schema, from_n)),
                         cache.Intern(Cycle(schema, to_n)));
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

}  // namespace
}  // namespace bagdet
