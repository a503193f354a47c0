// Seeded instance generator for the end-to-end benchmark.
//
// Every instance is a text program in the parser's datalog syntax (views
// first, the query as the last rule) together with its ground truth, which
// is known from the construction and never computed by the library:
//
//   * Each family has an absorbing component (a loop E(x,x), a loop
//     T(x,x,x)) that every query contains, so every view over the family's
//     relation maps into the query: all such views are relevant (Def. 25).
//   * The other components are pairwise non-isomorphic by construction
//     (distinct cycle lengths, distinct vertex/edge counts, distinct atom
//     counts), so the basis W (Def. 27) is exactly the family's components
//     and the view/query vectors are the chosen multiplicity vectors.
//   * Determined: q = (v1 + v2 - v3) / t for three of the views.
//     NOT determined: every view has equal multiplicity on two components
//     a != b and the query does not, so z = e_a - e_b is orthogonal to every
//     view vector but not to q (Fact 5).
//   * Irrelevant views carry an atom of a relation U that the query never
//     uses, so hom(v, q) is empty; they never change the verdict.
//   * The paper rows EX2, EX32 and C33 (both variants) carry the paper's
//     verdicts.

#ifndef BAGDET_E2E_GENERATOR_H_
#define BAGDET_E2E_GENERATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "structs/structure.h"

namespace e2e {

/// splitmix64: a self-contained generator, so the instance set depends only
/// on the seed and this file, never on the library's own RNG.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0. The modulo bias is irrelevant here.
  std::uint64_t Below(std::uint64_t bound) { return Next() % bound; }
  /// Uniform in [lo, hi].
  int Range(int lo, int hi) {
    return lo + static_cast<int>(Below(static_cast<std::uint64_t>(hi - lo + 1)));
  }
  /// Uniform double in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

struct Instance {
  std::string id;       ///< Family, k, verdict and index; unique in a set.
  std::string family;   ///< "cycle", "digraph", "ternary" or "paper".
  std::string text;     ///< Views first, query last.
  bool determined = false;  ///< Ground truth from the construction.
  std::size_t k = 0;        ///< |W| by construction.
  std::size_t relevant = 0; ///< |V| by construction.
  std::size_t views = 0;    ///< |V0|.
};

/// The three workload mixes.
enum class Mix { kDecide, kCertify, kServe };

/// The instance set of a mix. The same (mix, seed) gives a byte-identical
/// set. The catalogue (random components, multiplicity vectors, view order)
/// is drawn from a fixed per-mix stream. For decide the seed draws the
/// presentation (variable names and atom order of every rule): op costs
/// stay comparable across seeds while no two seeds give the same texts.
/// Certify and serve keep a fixed presentation (see generator.cpp); their
/// seeds draw the databases (Databases) and the arrivals (PoissonArrivals).
std::vector<Instance> GenerateInstances(Mix mix, std::uint64_t seed);

/// The serve workload's open-loop schedule: Poisson arrival offsets at
/// `rate` per second over `seconds`, a Zipf(1.1) key rank below `keys` per
/// arrival, and a counterexample request on about half of them.
struct Arrivals {
  std::vector<double> due_s;
  std::vector<std::size_t> key;
  std::vector<bool> want_cx;
};
Arrivals PoissonArrivals(std::size_t keys, double rate, double seconds,
                         std::uint64_t seed);

/// FNV-1a over the schedule.
std::uint64_t HashArrivals(const Arrivals& arrivals);

/// EX2, EX32, C33 without and with q as a view.
std::vector<Instance> PaperInstances();

/// FNV-1a over every instance's id, text and verdict, then over the text
/// of every database in `dbs`.
std::uint64_t HashInstances(const std::vector<Instance>& instances,
                            const std::vector<bagdet::Structure>& dbs = {});

/// A random database over `schema` with `domain` elements: about two facts
/// per element and relation, plus loops R(a,..,a) on a tenth of the
/// elements so every query component has a positive count.
bagdet::Structure RandomDatabase(std::shared_ptr<const bagdet::Schema> schema,
                                 std::size_t domain, SplitMix& rng);

/// One random database per instance, over the instance's schema, with a
/// fixed per-instance size of 30 to 120 elements and facts drawn from `seed`.
std::vector<bagdet::Structure> Databases(const std::vector<Instance>& instances,
                                         std::uint64_t seed);

}  // namespace e2e

#endif  // BAGDET_E2E_GENERATOR_H_
