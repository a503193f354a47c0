// paper_figures: regenerates the paper's two figures and the examples
// built on them:
//  * Figure 1 / Example 39: a pair of connected non-isomorphic structures
//    whose evaluation matrix M_W is singular;
//  * Example 42: with that W as basis, no counterexample exists inside
//    span_N(W), while the good basis repairs it;
//  * Figure 2 / Example 54: the point set P and cone C for a nonsingular
//    2x2 evaluation matrix.

#include <iostream>

#include "core/determinacy.h"
#include "hom/hom.h"
#include "linalg/gauss.h"
#include "query/cq.h"
#include "structs/canonical.h"
#include "structs/generator.h"

namespace bagdet {
namespace {

/// Finds a Figure-1-like pair: connected, non-isomorphic, hom(w2,w1) > 0,
/// singular 2x2 hom matrix.
std::pair<Structure, Structure> FindSingularPair() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", 2);
  std::vector<Structure> all;
  for (std::size_t n = 1; n <= 3; ++n) {
    EnumerateStructures(schema, n, [&](const Structure& s) {
      if (s.IsConnected()) all.push_back(s);
      return true;
    });
  }
  for (const Structure& w1 : all) {
    for (const Structure& w2 : all) {
      if (CanonicalKeyOf(w1) == CanonicalKeyOf(w2) ||
          CountHoms(w2, w1).IsZero()) {
        continue;
      }
      BigInt h11 = CountHoms(w1, w1), h12 = CountHoms(w1, w2);
      BigInt h21 = CountHoms(w2, w1), h22 = CountHoms(w2, w2);
      if (h11 * h22 == h12 * h21) return {w1, w2};
    }
  }
  throw std::runtime_error("no singular pair found");
}

void Figure1AndExample42() {
  auto [w1, w2] = FindSingularPair();
  std::cout << "== Figure 1 / Example 39: singular M_W ==\n";
  std::cout << "w1 = " << w1.ToString() << "\n";
  std::cout << "w2 = " << w2.ToString() << "\n";
  std::cout << "M_W = [hom(wi,wj)]:\n";
  std::cout << "      " << CountHoms(w1, w1) << "  " << CountHoms(w1, w2)
            << "\n      " << CountHoms(w2, w1) << "  " << CountHoms(w2, w2)
            << "\n";
  Mat mw(2, 2);
  mw.At(0, 0) = Rational(CountHoms(w1, w1));
  mw.At(0, 1) = Rational(CountHoms(w1, w2));
  mw.At(1, 0) = Rational(CountHoms(w2, w1));
  mw.At(1, 1) = Rational(CountHoms(w2, w2));
  std::cout << "det(M_W) = " << Determinant(mw)
            << "  (paper: singular, so S = W is NOT good)\n\n";

  std::cout << "== Example 42: the good basis repairs W ==\n";
  ConjunctiveQuery q = BooleanQueryFromStructure("q", w1);
  ConjunctiveQuery v = BooleanQueryFromStructure("v", w2);
  DeterminacyResult result = DecideBagDeterminacy({v}, q);
  std::cout << result.Summary() << "\n";
  if (result.counterexample.has_value()) {
    std::cout << "good-basis evaluation matrix:\n"
              << result.counterexample->evaluation_matrix.ToString() << "\n";
    std::cout << "det = "
              << Determinant(result.counterexample->evaluation_matrix)
              << " (nonsingular, as Lemma 40 requires)\n";
    auto issue = VerifyCounterexample(result.analysis, *result.counterexample);
    std::cout << "counterexample verification: "
              << (issue ? *issue : std::string("OK (exact)")) << "\n";
  }
  std::cout << "\n";
}

void Figure2Example54() {
  std::cout << "== Figure 2 / Example 54: the point set P and cone C ==\n";
  // Example 54 reuses the Figure-1 pair with s1 = a single vertex carrying
  // all loops and s2 = w2; the evaluation matrix becomes nonsingular.
  auto [w1, w2] = FindSingularPair();
  Structure s1 = AllLoopsSingleton(w1.schema_ptr());
  Structure s2 = w2;
  Mat m(2, 2);
  m.At(0, 0) = Rational(CountHoms(w1, s1));
  m.At(0, 1) = Rational(CountHoms(w1, s2));
  m.At(1, 0) = Rational(CountHoms(w2, s1));
  m.At(1, 1) = Rational(CountHoms(w2, s2));
  std::cout << "M_S =\n" << m.ToString() << "\n";
  std::cout << "det(M_S) = " << Determinant(m)
            << " (nonsingular: C has nonempty interior)\n";
  std::cout << "points of P (x = answer to w1, y = answer to w2), "
               "a,b = multiplicities of s1,s2:\n";
  std::cout << "a b | w1(a*s1+b*s2) w2(a*s1+b*s2) | M*(a,b)\n";
  for (int a = 0; a <= 3; ++a) {
    for (int b = 0; b <= 3; ++b) {
      Structure s =
          DisjointUnion(ScalarMultiple(a, s1), ScalarMultiple(b, s2));
      Vec point = m.Apply(Vec{Rational(a), Rational(b)});
      std::cout << a << " " << b << " | " << CountHoms(w1, s) << " "
                << CountHoms(w2, s) << " | " << point.ToString() << "\n";
    }
  }
  std::cout << "cone C = { M x : x >= 0 } is spanned by the columns "
            << m.Col(0).ToString() << " and " << m.Col(1).ToString() << "\n";
}

}  // namespace
}  // namespace bagdet

int main() {
  bagdet::Figure1AndExample42();
  bagdet::Figure2Example54();
  return 0;
}
