#include "generator.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "query/parser.h"

namespace e2e {

namespace {

/// One connected component: atoms over local variables 0..vars-1.
struct Component {
  int vars = 0;
  std::vector<std::pair<std::string, std::vector<int>>> atoms;
};

enum class Family { kCycle, kDigraph, kTernary };

const char* FamilyName(Family family) {
  switch (family) {
    case Family::kCycle: return "cycle";
    case Family::kDigraph: return "digraph";
    case Family::kTernary: return "ternary";
  }
  return "?";
}

template <typename T>
void Shuffle(std::vector<T>& items, SplitMix& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Below(i)]);
  }
}

/// Directed cycle of length `len` over E (length 1 is the loop E(x,x)).
Component Cycle(int len) {
  Component c;
  c.vars = len;
  for (int i = 0; i < len; ++i) c.atoms.push_back({"E", {i, (i + 1) % len}});
  return c;
}

/// A connected digraph over E with `n` >= 2 vertices and `m` edges, no
/// self-loops: a random spanning tree with random orientations, then random
/// extra edges.
Component RandomDigraph(int n, int m, SplitMix& rng) {
  std::set<std::pair<int, int>> edges;
  for (int v = 1; v < n; ++v) {
    const int u = static_cast<int>(rng.Below(static_cast<std::uint64_t>(v)));
    edges.insert(rng.Below(2) == 0 ? std::make_pair(u, v) : std::make_pair(v, u));
  }
  while (static_cast<int>(edges.size()) < m) {
    const int u = rng.Range(0, n - 1);
    const int v = rng.Range(0, n - 1);
    if (u != v) edges.insert({u, v});
  }
  Component c;
  c.vars = n;
  for (const auto& [u, v] : edges) c.atoms.push_back({"E", {u, v}});
  return c;
}

/// A connected ternary structure of `atoms` T-atoms: each atom after the
/// first shares one existing variable, at a random position, and adds two
/// fresh ones.
Component RandomTernary(int atoms, SplitMix& rng) {
  Component c;
  c.vars = 3;
  c.atoms.push_back({"T", {0, 1, 2}});
  for (int a = 1; a < atoms; ++a) {
    const std::uint64_t shared = rng.Below(3);
    std::vector<int> args(3);
    int fresh = c.vars;
    for (std::uint64_t p = 0; p < 3; ++p) {
      args[p] = p == shared ? rng.Range(0, c.vars - 1) : fresh++;
    }
    c.vars = fresh;
    c.atoms.push_back({"T", args});
  }
  return c;
}

/// Component library of a family. Index 0 is the absorbing loop; the other
/// members are pairwise non-isomorphic.
std::vector<Component> Library(Family family, SplitMix& rng) {
  std::vector<Component> lib;
  switch (family) {
    case Family::kCycle:
      for (int len = 1; len <= 10; ++len) lib.push_back(Cycle(len));
      break;
    case Family::kDigraph: {
      lib.push_back(Cycle(1));
      // Distinct (vertices, edges) pairs guarantee non-isomorphism.
      std::vector<std::pair<int, int>> sizes;
      for (int n = 2; n <= 6; ++n) {
        for (int m = n - 1; m <= std::min(n * (n - 1), n + 3); ++m) {
          sizes.push_back({n, m});
        }
      }
      Shuffle(sizes, rng);
      for (std::size_t i = 0; i < 12; ++i) {
        lib.push_back(RandomDigraph(sizes[i].first, sizes[i].second, rng));
      }
      break;
    }
    case Family::kTernary: {
      Component loop;
      loop.vars = 1;
      loop.atoms.push_back({"T", {0, 0, 0}});
      lib.push_back(loop);
      // Distinct atom counts guarantee non-isomorphism.
      for (int atoms = 1; atoms <= 6; ++atoms) {
        lib.push_back(RandomTernary(atoms, rng));
      }
      break;
    }
  }
  return lib;
}

/// Renders `head() :- body` for the disjoint union of `parts`, with the
/// variables renamed by a random permutation and the atoms shuffled, so the
/// parser and canonical labeling never see a pre-sorted body.
std::string Rule(const std::string& head,
                 const std::vector<const Component*>& parts, SplitMix& rng) {
  std::vector<std::pair<std::string, std::vector<int>>> atoms;
  int offset = 0;
  for (const Component* part : parts) {
    for (const auto& [rel, args] : part->atoms) {
      std::vector<int> shifted = args;
      for (int& v : shifted) v += offset;
      atoms.push_back({rel, shifted});
    }
    offset += part->vars;
  }
  std::vector<int> names(static_cast<std::size_t>(offset));
  for (int v = 0; v < offset; ++v) names[static_cast<std::size_t>(v)] = v;
  Shuffle(names, rng);
  Shuffle(atoms, rng);
  std::string out = head + "() :- ";
  for (std::size_t a = 0; a < atoms.size(); ++a) {
    if (a != 0) out += ", ";
    out += atoms[a].first + "(";
    for (std::size_t i = 0; i < atoms[a].second.size(); ++i) {
      if (i != 0) out += ",";
      out += "x" + std::to_string(names[static_cast<std::size_t>(
                       atoms[a].second[i])]);
    }
    out += ")";
  }
  return out + "\n";
}

std::vector<const Component*> Parts(const std::vector<const Component*>& comps,
                                    const std::vector<int>& mult) {
  std::vector<const Component*> parts;
  for (std::size_t i = 0; i < comps.size(); ++i) {
    for (int m = 0; m < mult[i]; ++m) parts.push_back(comps[i]);
  }
  return parts;
}

bool AllZero(const std::vector<int>& v) {
  return std::all_of(v.begin(), v.end(), [](int x) { return x == 0; });
}

struct Shape {
  Family family;
  std::size_t k;
  bool determined;
  std::size_t relevant;
  std::size_t irrelevant;
};

Instance Build(const Shape& shape, const std::vector<Component>& lib,
               std::size_t index, SplitMix& rng, SplitMix& names) {
  const std::size_t k = shape.k;
  // W: the absorbing loop plus k-1 other library members (cycles keep the
  // bench_determinacy layout C_1..C_k).
  std::vector<const Component*> comps = {&lib[0]};
  std::vector<std::size_t> pick;
  for (std::size_t i = 1; i < lib.size(); ++i) pick.push_back(i);
  if (shape.family != Family::kCycle) Shuffle(pick, rng);
  for (std::size_t i = 0; i + 1 < k; ++i) comps.push_back(&lib[pick[i]]);

  auto random_vec = [&](int hi) {
    std::vector<int> v(k);
    for (int& x : v) x = rng.Range(0, hi);
    return v;
  };
  std::vector<std::vector<int>> views;
  std::vector<int> q(k);
  if (shape.determined) {
    // q = (v1 + v2 - v3) / t with v1 = v3 + t*d, v2 = t*e, q = d + e.
    const int t = rng.Range(1, 2);
    std::vector<int> d = random_vec(1), e = random_vec(1), v3 = random_vec(1);
    e[0] = 1;
    if (AllZero(v3)) v3[rng.Below(k)] = 1;
    std::vector<int> v1(k), v2(k);
    for (std::size_t i = 0; i < k; ++i) {
      if (d[i] + e[i] == 0) d[i] = 1;
      q[i] = d[i] + e[i];
      v1[i] = v3[i] + t * d[i];
      v2[i] = t * e[i];
    }
    views = {v1, v2, v3};
    while (views.size() < shape.relevant) {
      std::vector<int> v = random_vec(2);
      if (AllZero(v)) v[rng.Below(k)] = 1;
      views.push_back(v);
    }
  } else {
    // Equal multiplicity on components a != b in every view, unequal in q.
    const std::size_t a = rng.Below(k);
    std::size_t b = rng.Below(k - 1);
    if (b >= a) ++b;
    while (views.size() < shape.relevant) {
      std::vector<int> v = random_vec(2);
      v[b] = v[a];
      if (AllZero(v)) v[a] = v[b] = 1;
      views.push_back(v);
    }
    for (int& x : q) x = rng.Range(1, 2);
    if (q[a] == q[b]) q[b] = 3 - q[a];
  }

  std::vector<std::vector<const Component*>> bodies;
  for (const std::vector<int>& v : views) bodies.push_back(Parts(comps, v));
  static const Component kMarker = [] {
    Component c;
    c.vars = 2;
    c.atoms.push_back({"U", {0, 1}});
    return c;
  }();
  for (std::size_t i = 0; i < shape.irrelevant; ++i) {
    std::vector<const Component*> body = Parts(comps, random_vec(1));
    body.push_back(&kMarker);
    bodies.push_back(body);
  }
  Shuffle(bodies, rng);

  Instance inst;
  inst.family = FamilyName(shape.family);
  inst.id = inst.family + "-k" + std::to_string(k) +
            (shape.determined ? "-det-" : "-not-") + std::to_string(index);
  inst.determined = shape.determined;
  inst.k = k;
  inst.relevant = shape.relevant;
  inst.views = bodies.size();
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    inst.text += Rule("v" + std::to_string(i), bodies[i], names);
  }
  inst.text += Rule("q", Parts(comps, q), names);
  return inst;
}

std::size_t MaxK(Mix mix, Family family) {
  static const std::size_t kMax[3][3] = {
      {10, 8, 6},  // decide
      {7, 6, 5},   // certify
      {5, 4, 4},   // serve: no 20-50 ms k=5 digraph counterexamples
  };
  return kMax[static_cast<int>(mix)][static_cast<int>(family)];
}

std::vector<Shape> Shapes(Mix mix) {
  std::vector<Shape> shapes;
  for (Family family : {Family::kCycle, Family::kDigraph, Family::kTernary}) {
    for (std::size_t k = 2; k <= MaxK(mix, family); ++k) {
      for (bool det : {false, true}) {
        switch (mix) {
          case Mix::kDecide: {
            // |V0| from 1 to 64: a small and a large view set per shape.
            shapes.push_back({family, k, det, det ? 3 : 1 + k % 2,
                              k % 3 == 0 ? 1u : 0u});
            const std::size_t total = std::min<std::size_t>(64, 16 + 8 * (k % 6));
            const std::size_t rel = std::min<std::size_t>(det ? 3 + k : 1 + k, 10);
            shapes.push_back({family, k, det, rel, total - rel});
            break;
          }
          case Mix::kCertify:
            shapes.push_back({family, k, det, det ? 3 : 1 + k % 2, k % 2});
            shapes.push_back(
                {family, k, det, det ? 3 + k % 3 : 2 + k % 3, 4 + k % 4});
            // Cheap k <= 4 variants put the set's p90 among the dense 4-5 ms
            // ops; with 64 instances it fell on a 2x step between the sixth
            // and seventh costliest, and moved 35% from run to run.
            for (std::size_t extra = 0; k <= 4 && extra < 4; ++extra) {
              shapes.push_back(
                  {family, k, det, det ? 3 + extra % 2 : 1 + extra % 3, extra});
            }
            break;
          case Mix::kServe:
            shapes.push_back({family, k, det, det ? 3 : 1 + k % 3, k % 3});
            break;
        }
      }
    }
  }
  return shapes;
}

}  // namespace

std::vector<Instance> PaperInstances() {
  std::vector<Instance> out;
  auto add = [&](const char* id, const char* text, bool det, std::size_t k,
                 std::size_t rel, std::size_t views) {
    Instance inst;
    inst.id = id;
    inst.family = "paper";
    inst.text = text;
    inst.determined = det;
    inst.k = k;
    inst.relevant = rel;
    inst.views = views;
    out.push_back(inst);
  };
  // Example 2: V -->set q but not -->bag q.
  add("EX2",
      "v1() :- P(u,x), R(x,y)\n"
      "v2() :- R(x,y), S(y,z)\n"
      "q() :- P(u,x), R(x,y), S(y,z)\n",
      false, 3, 2, 2);
  // Example 32: q-vec = 3*v1-vec - v2-vec over loop, edge, 2-path.
  add("EX32",
      "v1() :- R(a,a), R(b,b), R(c,d), R(e,f), R(f,g), R(h,i), R(i,j), "
      "R(k,l), R(l,m)\n"
      "v2() :- R(a,a), R(b,b), R(c,c), R(d,d), R(e,e), R(f,g), R(h,i), "
      "R(j,k), R(k,l), R(m,n), R(n,o), R(p,r), R(r,s), R(t,u), R(u,w), "
      "R(x,y), R(y,z), R(a1,b1), R(b1,c1), R(d1,e1), R(e1,f1)\n"
      "q() :- R(a,a), R(b,c), R(d,e), R(e,f), R(g,h), R(h,i)\n",
      true, 3, 2, 2);
  // Corollary 33: connected q is determined iff q itself is a view.
  add("C33-without-q",
      "v1() :- E(x,y)\n"
      "v2() :- E(x,y), E(y,z), E(z,w)\n"
      "q() :- E(x,y), E(y,z)\n",
      false, 2, 1, 2);
  add("C33-with-q",
      "v1() :- E(x,y)\n"
      "v2() :- E(x,y), E(y,z), E(z,w)\n"
      "v3() :- E(a,b), E(b,c)\n"
      "q() :- E(x,y), E(y,z)\n",
      true, 2, 2, 3);
  return out;
}

std::vector<Instance> GenerateInstances(Mix mix, std::uint64_t seed) {
  // The catalogue (component libraries, multiplicity vectors, view order)
  // is fixed per mix, so op costs are comparable across seeds; the decide
  // seed draws the presentation: variable names and atom order of every
  // rule. The mixes that synthesize counterexamples keep a fixed
  // presentation too: the interned order of the components steers the
  // distinguishers and so the good basis, and the synthesis cost of one
  // k=5 instance moves 20x with its variable names alone. Their seeds draw
  // the databases (certify) or the arrival schedule (serve) instead.
  const std::uint64_t catalogue =
      0x243f6a8885a308d3ull + static_cast<std::uint64_t>(mix);
  SplitMix rng(catalogue);
  SplitMix names(mix != Mix::kDecide
                     ? catalogue
                     : seed * 0x2545f4914f6cdd1dull +
                           static_cast<std::uint64_t>(mix));
  std::vector<Component> libs[3] = {Library(Family::kCycle, rng),
                                    Library(Family::kDigraph, rng),
                                    Library(Family::kTernary, rng)};
  const std::vector<Shape> shapes = Shapes(mix);
  // Serving draws 128 keys over its shapes: the shared per-seed component
  // libraries make keys overlap in components, as a real view catalogue does.
  const std::size_t count = mix == Mix::kServe ? 128 : shapes.size();
  std::vector<Instance> out;
  for (std::size_t i = 0; i < count; ++i) {
    const Shape& shape = shapes[i % shapes.size()];
    out.push_back(
        Build(shape, libs[static_cast<int>(shape.family)], i, rng, names));
  }
  for (Instance& inst : PaperInstances()) out.push_back(std::move(inst));
  return out;
}

namespace {

/// FNV-1a over a sequence of strings, each followed by a separator byte.
class Fnv {
 public:
  void Add(const std::string& s) {
    for (unsigned char c : s) Byte(c);
    Byte(0xff);
  }
  std::uint64_t value() const { return h_; }

 private:
  void Byte(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace

std::uint64_t HashInstances(const std::vector<Instance>& instances,
                            const std::vector<bagdet::Structure>& dbs) {
  Fnv h;
  for (const Instance& inst : instances) {
    h.Add(inst.id);
    h.Add(inst.text);
    h.Add(inst.determined ? "1" : "0");
  }
  for (const bagdet::Structure& db : dbs) h.Add(db.ToString());
  return h.value();
}

Arrivals PoissonArrivals(std::size_t keys, double rate, double seconds,
                         std::uint64_t seed) {
  // Zipf(1.1) over key ranks; ranks follow the generation order, so the hot
  // keys cover every shape once whatever the seed.
  std::vector<double> cdf;
  double total = 0;
  for (std::size_t r = 0; r < keys; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
    cdf.push_back(total);
  }
  SplitMix rng(seed ^ 0x9e3779b9ull);
  Arrivals a;
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.Unit()) / rate;
    if (t >= seconds) break;
    a.due_s.push_back(t);
    const double u = rng.Unit() * total;
    a.key.push_back(static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()));
    a.want_cx.push_back(rng.Below(2) == 0);
  }
  return a;
}

std::uint64_t HashArrivals(const Arrivals& a) {
  Fnv h;
  for (std::size_t i = 0; i < a.due_s.size(); ++i) {
    h.Add(std::to_string(a.due_s[i]) + " " + std::to_string(a.key[i]) +
          (a.want_cx[i] ? " cx" : ""));
  }
  return h.value();
}

bagdet::Structure RandomDatabase(std::shared_ptr<const bagdet::Schema> schema,
                                 std::size_t domain, SplitMix& rng) {
  bagdet::Structure db(schema, domain);
  for (bagdet::RelationId r = 0; r < schema->NumRelations(); ++r) {
    const std::size_t arity = schema->Arity(r);
    for (std::size_t f = 0; f < 2 * domain; ++f) {
      bagdet::Tuple t(arity);
      for (bagdet::Element& e : t) {
        e = static_cast<bagdet::Element>(rng.Below(domain));
      }
      db.AddFact(r, t);
    }
    for (std::size_t f = 0; f < domain / 10 + 1; ++f) {
      const auto e = static_cast<bagdet::Element>(rng.Below(domain));
      db.AddFact(r, bagdet::Tuple(arity, e));
    }
  }
  return db;
}

std::vector<bagdet::Structure> Databases(const std::vector<Instance>& instances,
                                         std::uint64_t seed) {
  SplitMix rng(seed ^ 0x5bd1e995ull);
  std::vector<bagdet::Structure> dbs;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    bagdet::QueryParser parser;
    parser.ParseProgram(instances[i].text);
    // The size is fixed per instance: the count of a high-k determined
    // instance costs 2.5x more on 100 elements than on 40, which would make
    // the op-cost order, and so its percentiles, depend on the seed.
    dbs.push_back(RandomDatabase(parser.schema(), 30 + (37 * i) % 91, rng));
  }
  return dbs;
}

}  // namespace e2e
