#include "path/path_query.h"

#include <deque>
#include <stdexcept>

namespace bagdet {

PathQuery::PathQuery(std::shared_ptr<const Schema> schema,
                     std::vector<RelationId> word)
    : schema_(std::move(schema)), word_(std::move(word)) {
  for (RelationId r : word_) {
    if (schema_->Arity(r) != 2) {
      throw std::invalid_argument("PathQuery: relation " + schema_->Name(r) +
                                  " is not binary");
    }
  }
}

PathQuery PathQuery::FromWord(std::string_view word,
                              const std::shared_ptr<Schema>& schema) {
  std::vector<RelationId> ids;
  ids.reserve(word.size());
  for (char c : word) {
    ids.push_back(schema->AddRelation(std::string(1, c), 2));
  }
  return PathQuery(schema, std::move(ids));
}

bool PathQuery::MatchesAt(const PathQuery& other, std::size_t offset) const {
  if (offset + word_.size() > other.word_.size()) return false;
  for (std::size_t i = 0; i < word_.size(); ++i) {
    if (word_[i] != other.word_[offset + i]) return false;
  }
  return true;
}

Structure PathQuery::FrozenBody() const {
  Structure s(schema_, word_.size() + 1);
  for (std::size_t i = 0; i < word_.size(); ++i) {
    s.AddFact(word_[i], {static_cast<Element>(i), static_cast<Element>(i + 1)});
  }
  return s;
}

ConjunctiveQuery PathQuery::ToConjunctiveQuery(std::string name) const {
  if (word_.empty()) {
    // The empty word denotes "x = y" (footnote 12), which is not a valid
    // conjunctive query.
    throw std::invalid_argument(
        "PathQuery::ToConjunctiveQuery: the empty word is x = y, not a CQ");
  }
  const std::size_t n = word_.size();
  // Variables: x (free), y (free), then the n-1 internal path positions.
  std::vector<std::string> var_names = {"x", "y"};
  for (std::size_t i = 1; i < n; ++i) {
    var_names.push_back("x" + std::to_string(i));
  }
  auto var_at = [n](std::size_t position) -> VarId {
    if (position == 0) return 0;
    if (position == n) return 1;
    return static_cast<VarId>(position + 1);
  };
  std::vector<VarId> args;
  args.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    args.push_back(var_at(i));
    args.push_back(var_at(i + 1));
  }
  return ConjunctiveQuery(std::move(name), schema_, std::move(var_names), 2,
                          word_, std::move(args));
}

std::string PathQuery::ToString() const {
  if (word_.empty()) return "<epsilon>";
  std::string out;
  for (std::size_t i = 0; i < word_.size(); ++i) {
    if (i != 0 && schema_->Name(word_[i - 1]).size() > 1) out += '.';
    out += schema_->Name(word_[i]);
  }
  return out;
}

namespace {

/// BFS over G_{q,V} (Definition 9) from prefix length `start`; fills
/// `parent_step` with the step that first reached each prefix.
std::vector<bool> ReachPrefixes(const PathQuery& q,
                                const std::vector<PathQuery>& views,
                                std::size_t start,
                                std::vector<PrefixStep>* parent_step) {
  const std::size_t n = q.Length();
  std::vector<bool> reached(n + 1, false);
  if (parent_step != nullptr) {
    parent_step->assign(n + 1, PrefixStep{0, 0, 0, 0});
  }
  std::deque<std::size_t> frontier;
  reached[start] = true;
  frontier.push_back(start);
  while (!frontier.empty()) {
    std::size_t at = frontier.front();
    frontier.pop_front();
    for (std::size_t vi = 0; vi < views.size(); ++vi) {
      const PathQuery& v = views[vi];
      // Forward edge: at → at + |v| when v matches q at offset `at`.
      if (v.MatchesAt(q, at)) {
        std::size_t next = at + v.Length();
        if (!reached[next]) {
          reached[next] = true;
          if (parent_step != nullptr) {
            (*parent_step)[next] = PrefixStep{at, next, vi, +1};
          }
          frontier.push_back(next);
        }
      }
      // Backward edge: at → at - |v| when v matches q at offset at - |v|.
      if (v.Length() <= at && v.MatchesAt(q, at - v.Length())) {
        std::size_t next = at - v.Length();
        if (!reached[next]) {
          reached[next] = true;
          if (parent_step != nullptr) {
            (*parent_step)[next] = PrefixStep{at, next, vi, -1};
          }
          frontier.push_back(next);
        }
      }
    }
  }
  return reached;
}

}  // namespace

PathDeterminacyResult DecidePathDeterminacy(const PathQuery& q,
                                            const std::vector<PathQuery>& views,
                                            bool want_counterexample) {
  PathDeterminacyResult result;
  std::vector<PrefixStep> parent;
  std::vector<bool> reached = ReachPrefixes(q, views, 0, &parent);
  result.determined = reached[q.Length()];
  if (result.determined) {
    // Reconstruct the ε→q path.
    std::vector<PrefixStep> reversed;
    std::size_t at = q.Length();
    while (at != 0) {
      reversed.push_back(parent[at]);
      at = parent[at].from_prefix;
    }
    result.path.assign(reversed.rbegin(), reversed.rend());
    return result;
  }
  if (want_counterexample) {
    result.counterexample = BuildPathCounterexample(q, views);
  }
  return result;
}

std::pair<Structure, Structure> BuildPathCounterexample(
    const PathQuery& q, const std::vector<PathQuery>& views) {
  std::vector<bool> reachable = ReachPrefixes(q, views, 0, nullptr);
  const std::size_t n = q.Length();
  if (reachable[n]) {
    throw std::logic_error(
        "BuildPathCounterexample: instance is determined, no counterexample");
  }
  // Domain: [prefix i, copy j] ↦ 2i + j, for i = 0..n, j ∈ {0,1}.
  auto id = [](std::size_t prefix, int copy) {
    return static_cast<Element>(2 * prefix + copy);
  };
  Structure d(q.schema_ptr(), 2 * (n + 1));
  Structure d_prime(q.schema_ptr(), 2 * (n + 1));
  for (std::size_t i = 0; i < n; ++i) {
    RelationId r = q.word()[i];
    for (int j = 0; j < 2; ++j) {
      d.AddFact(r, {id(i, j), id(i + 1, j)});
    }
    // D′: stay within the copy when both endpoints are on the same side of
    // the reachability relation ∼, cross otherwise (Appendix B).
    bool same_class = reachable[i] == reachable[i + 1];
    for (int j = 0; j < 2; ++j) {
      int target = same_class ? j : 1 - j;
      d_prime.AddFact(r, {id(i, j), id(i + 1, target)});
    }
  }
  return {std::move(d), std::move(d_prime)};
}

}  // namespace bagdet
