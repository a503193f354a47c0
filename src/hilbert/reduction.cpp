#include "hilbert/reduction.h"

#include <stdexcept>
#include <string>

#include "util/hash.h"

namespace bagdet {

namespace {

/// Builds Φ_m (optionally ∧ H or ∧ C): one fresh variable with a unary
/// X_i atom for each unit of degree, plus the nullary marker atom.
ConjunctiveQuery BuildPhiConjunct(const std::shared_ptr<Schema>& schema,
                                  const std::vector<RelationId>& x_relations,
                                  const Monomial& monomial, std::string name,
                                  std::optional<RelationId> marker) {
  std::vector<std::string> var_names;
  std::vector<RelationId> relations;
  std::vector<VarId> args;
  for (std::size_t x = 0; x < monomial.exponents.size(); ++x) {
    for (std::uint32_t j = 0; j < monomial.exponents[x]; ++j) {
      args.push_back(static_cast<VarId>(var_names.size()));
      var_names.push_back("y_" + std::to_string(x) + "_" + std::to_string(j));
      relations.push_back(x_relations[x]);
    }
  }
  if (marker.has_value()) relations.push_back(*marker);
  return ConjunctiveQuery(std::move(name), schema, std::move(var_names), 0,
                          std::move(relations), std::move(args));
}

}  // namespace

Theorem2Reduction ReduceToDeterminacy(const DiophantineInstance& instance) {
  Theorem2Reduction red;
  red.schema = std::make_shared<Schema>();
  red.h_relation = red.schema->AddRelation("H", 0);
  red.c_relation = red.schema->AddRelation("C", 0);
  for (std::size_t x = 0; x < instance.NumUnknowns(); ++x) {
    red.x_relations.push_back(
        red.schema->AddRelation("X" + std::to_string(x), 1));
  }

  // q = H.
  ConjunctiveQuery just_h("q", red.schema, {}, 0, {red.h_relation}, {});
  ConjunctiveQuery just_c("c", red.schema, {}, 0, {red.c_relation}, {});
  red.query = UnionQuery("q", {just_h});

  // V1 = H ∨ C.
  std::vector<UnionQuery> views;
  views.emplace_back("V1", std::vector<ConjunctiveQuery>{just_h, just_c});

  // V_xi = ∃y X_i(y).
  for (std::size_t x = 0; x < instance.NumUnknowns(); ++x) {
    ConjunctiveQuery vx("Vx" + std::to_string(x), red.schema, {"y"}, 0,
                        {red.x_relations[x]}, {0});
    views.emplace_back(vx.name(), std::vector<ConjunctiveQuery>{vx});
  }

  // Φ_m per monomial, and Ψ_P / Ψ_N with multiplicity |c(m)|.
  std::vector<ConjunctiveQuery> psi_p;
  std::vector<ConjunctiveQuery> psi_n;
  for (std::size_t mi = 0; mi < instance.monomials().size(); ++mi) {
    const Monomial& m = instance.monomials()[mi];
    red.phi.push_back(BuildPhiConjunct(red.schema, red.x_relations, m,
                                       "phi" + std::to_string(mi),
                                       std::nullopt));
    const std::int64_t c = m.coefficient;
    const std::uint64_t copies =
        static_cast<std::uint64_t>(c < 0 ? -c : c);
    for (std::uint64_t copy = 0; copy < copies; ++copy) {
      if (c > 0) {
        psi_p.push_back(BuildPhiConjunct(
            red.schema, red.x_relations, m,
            "psiP_" + std::to_string(mi) + "_" + std::to_string(copy),
            red.h_relation));
      } else {
        psi_n.push_back(BuildPhiConjunct(
            red.schema, red.x_relations, m,
            "psiN_" + std::to_string(mi) + "_" + std::to_string(copy),
            red.c_relation));
      }
    }
  }
  red.psi_positive = UnionQuery("PsiP", psi_p);
  red.psi_negative = UnionQuery("PsiN", psi_n);

  // V_I = Ψ_P ∨ Ψ_N.
  std::vector<ConjunctiveQuery> vi = psi_p;
  vi.insert(vi.end(), psi_n.begin(), psi_n.end());
  views.emplace_back("VI", std::move(vi));

  red.views = std::move(views);
  return red;
}

Structure Theorem2Reduction::MakeStructure(
    bool has_h, bool has_c,
    const std::vector<std::uint64_t>& x_counts) const {
  if (x_counts.size() != x_relations.size()) {
    throw std::invalid_argument("MakeStructure: wrong number of X counts");
  }
  Structure data(schema, 0);
  if (has_h) data.AddFact(h_relation, {});
  if (has_c) data.AddFact(c_relation, {});
  for (std::size_t x = 0; x < x_counts.size(); ++x) {
    for (std::uint64_t i = 0; i < x_counts[x]; ++i) {
      Element e = data.AddElement();
      data.AddFact(x_relations[x], {e});
    }
  }
  return data;
}

std::pair<Structure, Structure> Theorem2Reduction::WitnessPair(
    const std::vector<std::uint64_t>& solution) const {
  return {MakeStructure(/*has_h=*/true, /*has_c=*/false, solution),
          MakeStructure(/*has_h=*/false, /*has_c=*/true, solution)};
}

std::vector<BigInt> Theorem2Reduction::EvaluateViews(
    const Structure& data) const {
  std::vector<BigInt> values;
  values.reserve(views.size());
  for (const UnionQuery& view : views) values.push_back(view.Count(data));
  return values;
}

std::uint64_t CountVectorFingerprint(const std::vector<BigInt>& counts) {
  // Largest prime below 2^62.
  constexpr std::uint64_t kPrime = 4611686018427387847ull;
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ counts.size();
  for (const BigInt& count : counts) {
    h = MixHash(h, count.Mod(kPrime));
  }
  return h;
}

}  // namespace bagdet
