#include "hom/hom.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "structs/canonical.h"
#include "structs/index.h"
#include "util/bitset.h"
#include "util/exec_context.h"
#include "util/failpoint.h"

namespace bagdet {

namespace {

constexpr Element kUnassigned = static_cast<Element>(-1);

/// A unit of backtracking work: match one atom of `from` against the facts
/// of `to`, or choose the image of one isolated element.
struct Task {
  bool is_atom = true;
  RelationId relation = 0;
  Tuple atom;          // Elements of `from` (is_atom).
  Element element = 0; // Isolated element (!is_atom).
};

/// Orders the atoms by a min-new-live-vars greedy rule: each round picks
/// the atom introducing the fewest not-yet-seen elements (tie-break: most
/// already-seen positions).
void GreedyOrder(std::vector<Task>* atoms, std::size_t num_vars) {
  std::vector<bool> seen_element(num_vars, false);
  std::vector<bool> done(atoms->size(), false);
  std::vector<Element> distinct_new;
  std::vector<Task> plan;
  plan.reserve(atoms->size());
  for (std::size_t round = 0; round < atoms->size(); ++round) {
    std::size_t best = atoms->size();
    std::size_t best_new = static_cast<std::size_t>(-1);
    int best_seen = -1;
    for (std::size_t i = 0; i < atoms->size(); ++i) {
      if (done[i]) continue;
      distinct_new.clear();
      int seen = 0;
      for (Element e : (*atoms)[i].atom) {
        if (seen_element[e]) {
          ++seen;
        } else if (std::find(distinct_new.begin(), distinct_new.end(), e) ==
                   distinct_new.end()) {
          distinct_new.push_back(e);
        }
      }
      const std::size_t new_vars = distinct_new.size();
      if (new_vars < best_new ||
          (new_vars == best_new && seen > best_seen)) {
        best_new = new_vars;
        best_seen = seen;
        best = i;
      }
    }
    done[best] = true;
    for (Element e : (*atoms)[best].atom) seen_element[e] = true;
    plan.push_back(std::move((*atoms)[best]));
  }
  *atoms = std::move(plan);
}

/// Elimination plan over the atoms of `from`: greedy order, then one task
/// per isolated element.
std::vector<Task> PlanTasks(const Structure& from) {
  std::vector<Task> atoms;
  for (RelationId r = 0; r < from.schema().NumRelations(); ++r) {
    for (const Tuple& t : from.Facts(r)) {
      Task task;
      task.relation = r;
      task.atom = t;
      atoms.push_back(std::move(task));
    }
  }
  GreedyOrder(&atoms, from.DomainSize());
  std::vector<bool> seen_element(from.DomainSize(), false);
  for (const Task& task : atoms) {
    for (Element e : task.atom) seen_element[e] = true;
  }
  for (Element e = 0; e < from.DomainSize(); ++e) {
    if (!seen_element[e]) {
      Task task;
      task.is_atom = false;
      task.element = e;
      atoms.push_back(std::move(task));
    }
  }
  return atoms;
}

/// Shared backtracking engine. `visit` is called at every complete
/// assignment; returning false aborts the search. `used` is non-null for
/// injective matching. Candidate facts are narrowed through the target's
/// positional index — the most selective bound position drives the scan,
/// intersected with the runner-up bucket when the two are within 2× of
/// each other.
class Matcher {
 public:
  Matcher(const Structure& from, const Structure& to,
          const std::function<bool(const std::vector<Element>&)>& visit,
          std::vector<bool>* used)
      : to_(to), index_(to.Index()), visit_(visit), used_(used),
        assignment_(from.DomainSize(), kUnassigned),
        plan_(PlanTasks(from)),
        bound_stack_(plan_.size()) {}

  /// Returns false iff the visitor aborted.
  bool Run() { return RunFrom(0); }

 private:
  bool TryFact(std::size_t task_index, const Tuple& fact) {
    const Task& task = plan_[task_index];
    std::vector<Element>& bound = bound_stack_[task_index];
    bound.clear();
    bool ok = true;
    for (std::size_t pos = 0; pos < fact.size() && ok; ++pos) {
      Element var = task.atom[pos];
      if (assignment_[var] == kUnassigned) {
        if (used_ != nullptr && (*used_)[fact[pos]]) {
          ok = false;
          break;
        }
        assignment_[var] = fact[pos];
        if (used_ != nullptr) (*used_)[fact[pos]] = true;
        bound.push_back(var);
      } else if (assignment_[var] != fact[pos]) {
        ok = false;
      }
    }
    bool keep_going = true;
    if (ok) keep_going = RunFrom(task_index + 1);
    for (auto rit = bound.rbegin(); rit != bound.rend(); ++rit) {
      if (used_ != nullptr) (*used_)[assignment_[*rit]] = false;
      assignment_[*rit] = kUnassigned;
    }
    return keep_going;
  }

  bool RunFrom(std::size_t task_index) {
    // The backtracking tree is the unbounded dimension here (hom(v, q)
    // existence checks can be exponential with no early exit), so every
    // node is a governed checkpoint.
    ExecCheckPoint("hom.matcher");
    BAGDET_FAILPOINT("hom/matcher");
    if (task_index == plan_.size()) return visit_(assignment_);
    const Task& task = plan_[task_index];
    if (!task.is_atom) {
      for (Element image = 0; image < to_.DomainSize(); ++image) {
        if (used_ != nullptr && (*used_)[image]) continue;
        assignment_[task.element] = image;
        if (used_ != nullptr) (*used_)[image] = true;
        bool keep_going = RunFrom(task_index + 1);
        if (used_ != nullptr) (*used_)[image] = false;
        assignment_[task.element] = kUnassigned;
        if (!keep_going) return false;
      }
      return true;
    }
    const std::vector<Tuple>& facts = to_.Facts(task.relation);
    if (task.atom.empty()) {
      // Nullary atom: present or not, no bindings.
      if (facts.empty()) return true;
      return RunFrom(task_index + 1);
    }
    // Most selective bucket among the bound positions, plus the runner-up
    // when it is nearly as selective (within 2×): intersecting the two id
    // sets through a fact-id bitset often cuts the scan by the product of
    // both selectivities for the cost of one linear pass.
    std::size_t best_pos = fact_arity_sentinel();
    std::size_t second_pos = fact_arity_sentinel();
    std::size_t best_size = facts.size();
    std::size_t second_size = facts.size();
    for (std::size_t pos = 0; pos < task.atom.size(); ++pos) {
      Element image = assignment_[task.atom[pos]];
      if (image == kUnassigned) continue;
      std::size_t size = index_.BucketSize(task.relation, pos, image);
      if (size < best_size || best_pos == fact_arity_sentinel()) {
        second_pos = best_pos;
        second_size = best_size;
        best_pos = pos;
        best_size = size;
        if (size == 0) break;
      } else if (size < second_size || second_pos == fact_arity_sentinel()) {
        second_pos = pos;
        second_size = size;
      }
    }
    if (best_pos != fact_arity_sentinel()) {
      Element image = assignment_[task.atom[best_pos]];
      FactIdSpan bucket = index_.Bucket(task.relation, best_pos, image);
      // Tiny buckets are cheaper to scan than to intersect (building the
      // id bitset costs a pass over the runner-up bucket up front).
      if (best_size > 16 && second_pos != fact_arity_sentinel() &&
          second_size <= 2 * best_size) {
        Element second_image = assignment_[task.atom[second_pos]];
        FactIdSpan other =
            index_.Bucket(task.relation, second_pos, second_image);
        SVOBitset in_other(facts.size());
        for (std::uint32_t id : other) in_other.Set(id);
        for (std::uint32_t id : bucket) {
          if (!in_other.Test(id)) continue;
          if (!TryFact(task_index, facts[id])) return false;
        }
        return true;
      }
      for (std::uint32_t id : bucket) {
        if (!TryFact(task_index, facts[id])) return false;
      }
      return true;
    }
    for (const Tuple& fact : facts) {
      if (!TryFact(task_index, fact)) return false;
    }
    return true;
  }

  static constexpr std::size_t fact_arity_sentinel() {
    return static_cast<std::size_t>(-1);
  }

  const Structure& to_;
  const StructureIndex& index_;
  const std::function<bool(const std::vector<Element>&)>& visit_;
  std::vector<bool>* used_;
  std::vector<Element> assignment_;
  std::vector<Task> plan_;
  // Per-depth scratch of vars bound at that frame (avoids a heap
  // allocation per visited fact).
  std::vector<std::vector<Element>> bound_stack_;
};

/// Open-addressing hash table from packed keys — `width` Elements stored
/// back to back in one arena — to BigInt counts. This is the DP table of
/// the variable-elimination counter: no per-entry node allocations, no
/// tree comparisons, keys contiguous in memory.
class FlatTable {
 public:
  explicit FlatTable(std::size_t width) : width_(width) {
    slots_.assign(16, 0);
  }

  std::size_t size() const { return counts_.size(); }
  bool empty() const { return counts_.empty(); }
  std::size_t width() const { return width_; }

  const Element* Key(std::size_t entry) const {
    return arena_.data() + entry * width_;
  }
  const BigInt& Count(std::size_t entry) const { return counts_[entry]; }

  /// table[key] += delta, inserting the key when absent.
  void Add(const Element* key, const BigInt& delta) {
    if ((counts_.size() + 1) * 4 >= slots_.size() * 3) Grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = HashKey(key) & mask;
    while (slots_[slot] != 0) {
      const std::size_t entry = slots_[slot] - 1;
      if (KeyEquals(entry, key)) {
        counts_[entry] += delta;
        return;
      }
      slot = (slot + 1) & mask;
    }
    slots_[slot] = static_cast<std::uint32_t>(counts_.size() + 1);
    arena_.insert(arena_.end(), key, key + width_);
    counts_.push_back(delta);
  }

  /// Resident footprint (capacities, not sizes — what the allocator holds).
  /// BigInt limb spill is not counted; the budget is an admission-control
  /// estimate, not a malloc ledger.
  std::uint64_t ApproxBytes() const {
    return static_cast<std::uint64_t>(arena_.capacity()) * sizeof(Element) +
           static_cast<std::uint64_t>(counts_.capacity()) * sizeof(BigInt) +
           static_cast<std::uint64_t>(slots_.capacity()) *
               sizeof(std::uint32_t);
  }

 private:
  std::uint64_t HashKey(const Element* key) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < width_; ++i) {
      h ^= key[i];
      h *= 0xbf58476d1ce4e5b9ull;
    }
    return h ^ (h >> 29);
  }

  bool KeyEquals(std::size_t entry, const Element* key) const {
    const Element* stored = arena_.data() + entry * width_;
    for (std::size_t i = 0; i < width_; ++i) {
      if (stored[i] != key[i]) return false;
    }
    return true;
  }

  void Grow() {
    BAGDET_FAILPOINT("hom/dp_table_grow");
    std::vector<std::uint32_t> fresh(slots_.size() * 2, 0);
    const std::size_t mask = fresh.size() - 1;
    for (std::size_t entry = 0; entry < counts_.size(); ++entry) {
      std::size_t slot = HashKey(Key(entry)) & mask;
      while (fresh[slot] != 0) slot = (slot + 1) & mask;
      fresh[slot] = static_cast<std::uint32_t>(entry + 1);
    }
    slots_ = std::move(fresh);
  }

  std::size_t width_;
  std::vector<Element> arena_;   // size() * width_ elements
  std::vector<BigInt> counts_;   // parallel to packed keys
  std::vector<std::uint32_t> slots_;  // entry index + 1; 0 = empty
};

/// Runs the variable-elimination DP over a fixed plan.
BigInt RunDpPlan(const std::vector<Task>& plan, const Structure& component,
                 const Structure& to) {
  const StructureIndex& to_index = to.Index();
  // Last atom-task index using each element of the component.
  std::vector<std::size_t> last_use(component.DomainSize(), 0);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    for (Element e : plan[i].atom) last_use[e] = i;
  }
  // The table maps assignments of the live variables (kept sorted by
  // variable id in `live`) to the number of extensions producing them.
  std::vector<Element> live;
  FlatTable table(0);
  table.Add(nullptr, BigInt(1));
  // Connected components with facts have no isolated elements, but stay
  // correct if one ever appears in a plan: each contributes a free factor
  // of |dom(to)|.
  BigInt isolated_factor(1);
  // Transient DP memory is accounted against the governing request: the
  // held total tracks the live + under-construction tables and is
  // released on every exit, including a tripped unwind.
  ScopedCharge dp_mem("hom.dp");
  for (std::size_t i = 0; i < plan.size(); ++i) {
    ExecCheckPoint("hom.dp");
    BAGDET_FAILPOINT("hom/dp_step");
    const Task& task = plan[i];
    if (!task.is_atom) {
      isolated_factor *= BigInt(static_cast<std::int64_t>(to.DomainSize()));
      continue;
    }
    const std::vector<Tuple>& facts = to.Facts(task.relation);
    if (task.atom.empty()) {
      // Nullary atom: a presence test, no bindings.
      if (facts.empty()) return BigInt(0);
      continue;
    }
    // New live set: current ∪ atom vars; `kept` drops vars last used here.
    std::vector<Element> next_live = live;
    for (Element var : task.atom) {
      if (std::find(next_live.begin(), next_live.end(), var) ==
          next_live.end()) {
        next_live.push_back(var);
      }
    }
    std::sort(next_live.begin(), next_live.end());
    std::vector<Element> kept;
    for (Element var : next_live) {
      if (last_use[var] > i) kept.push_back(var);
    }
    // Resolve every variable→slot lookup once for the whole step.
    auto slot_in = [](const std::vector<Element>& vars, Element var) {
      return static_cast<std::size_t>(
          std::find(vars.begin(), vars.end(), var) - vars.begin());
    };
    std::vector<std::size_t> live_slot(live.size());
    for (std::size_t v = 0; v < live.size(); ++v) {
      live_slot[v] = slot_in(next_live, live[v]);
    }
    std::vector<std::size_t> atom_slot(task.atom.size());
    // key_slot[pos]: index into the current table key whose value binds
    // atom position `pos`, or npos when the position is free.
    constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::vector<std::size_t> key_slot(task.atom.size(), npos);
    for (std::size_t pos = 0; pos < task.atom.size(); ++pos) {
      atom_slot[pos] = slot_in(next_live, task.atom[pos]);
      std::size_t in_live = slot_in(live, task.atom[pos]);
      if (in_live < live.size()) key_slot[pos] = in_live;
    }
    std::vector<std::size_t> kept_slot(kept.size());
    for (std::size_t k = 0; k < kept.size(); ++k) {
      kept_slot[k] = slot_in(next_live, kept[k]);
    }
    // Slots of next_live not carried over from live: these must read as
    // unassigned at the start of every fact probe.
    std::vector<std::size_t> fresh_slots;
    for (std::size_t s = 0; s < next_live.size(); ++s) {
      bool carried = false;
      for (std::size_t v = 0; v < live.size() && !carried; ++v) {
        carried = live_slot[v] == s;
      }
      if (!carried) fresh_slots.push_back(s);
    }
    FlatTable next_table(kept.size());
    const std::uint64_t prev_table_bytes = table.ApproxBytes();
    std::vector<Element> joined(next_live.size(), kUnassigned);
    std::vector<Element> projected(kept.size());
    for (std::size_t entry = 0; entry < table.size(); ++entry) {
      ExecCheckPoint("hom.dp");
      const Element* key = table.Key(entry);
      const BigInt& count = table.Count(entry);
      // Fill the carried-over slots once per entry; fact probes only touch
      // fresh slots.
      for (std::size_t v = 0; v < live.size(); ++v) {
        joined[live_slot[v]] = key[v];
      }
      // Most selective bucket among the bound positions.
      std::size_t best_pos = npos;
      std::size_t best_size = facts.size();
      for (std::size_t pos = 0; pos < task.atom.size(); ++pos) {
        if (key_slot[pos] == npos) continue;
        std::size_t size =
            to_index.BucketSize(task.relation, pos, key[key_slot[pos]]);
        if (size < best_size || best_pos == npos) {
          best_size = size;
          best_pos = pos;
          if (size == 0) break;
        }
      }
      FactIdSpan bucket;
      if (best_pos != npos) {
        bucket = to_index.Bucket(task.relation, best_pos,
                                 key[key_slot[best_pos]]);
      }
      const std::size_t num_candidates =
          best_pos != npos ? bucket.size() : facts.size();
      for (std::size_t c = 0; c < num_candidates; ++c) {
        ExecCheckPoint("hom.dp");
        const Tuple& fact =
            best_pos != npos ? facts[bucket.first[c]] : facts[c];
        for (std::size_t s : fresh_slots) joined[s] = kUnassigned;
        bool ok = true;
        for (std::size_t pos = 0; pos < fact.size() && ok; ++pos) {
          Element& slot_value = joined[atom_slot[pos]];
          if (slot_value == kUnassigned) {
            slot_value = fact[pos];
          } else if (slot_value != fact[pos]) {
            ok = false;
          }
        }
        if (!ok) continue;
        for (std::size_t k = 0; k < kept.size(); ++k) {
          projected[k] = joined[kept_slot[k]];
        }
        next_table.Add(projected.data(), count);
      }
      dp_mem.Update(prev_table_bytes + next_table.ApproxBytes());
    }
    live = std::move(kept);
    table = std::move(next_table);
    if (table.empty()) return BigInt(0);
  }
  BigInt total(0);
  for (std::size_t entry = 0; entry < table.size(); ++entry) {
    total += table.Count(entry);
  }
  total *= isolated_factor;
  return total;
}

/// Counts homomorphisms of a single *connected* component by variable
/// elimination: a count-annotated join plan over the atoms, projecting out
/// every variable after its last use. Unlike enumeration this runs in time
/// polynomial in the table sizes, not in the (possibly astronomical)
/// number of homomorphisms.
BigInt CountComponent(const Structure& component, const Structure& to) {
  if (component.DomainSize() == 0) {
    // A lone nullary fact: one hom when present, none otherwise.
    for (RelationId r = 0; r < component.schema().NumRelations(); ++r) {
      if (!component.Facts(r).empty() && to.Facts(r).empty()) return BigInt(0);
    }
    return BigInt(1);
  }
  if (component.NumFacts() == 0) {
    // Isolated element: any image works.
    return BigInt(static_cast<std::int64_t>(to.DomainSize()));
  }
  return RunDpPlan(PlanTasks(component), component, to);
}

}  // namespace

BigInt CountHoms(const Structure& from, const Structure& to) {
  const ComponentRange components = from.Components();
  // hom(A + A + B, D) = hom(A, D)^2 · hom(B, D) (Lemma 4): count one
  // component per isomorphism class and raise it to the class's
  // multiplicity. Classes come from the cached per-component certificates
  // when `from` already has a canonical form (never computed here: that
  // would cost a labeling search and write to a possibly shared
  // structure); otherwise only components that compare equal are grouped.
  const StructureCanonicalData* canonical = from.CachedCanonicalData();
  const bool by_certificate =
      canonical != nullptr &&
      canonical->component_certificates.size() == components.size();
  auto same_class = [&](std::size_t a, std::size_t b) {
    return by_certificate ? canonical->component_certificates[a] ==
                                canonical->component_certificates[b]
                          : components[a] == components[b];
  };
  // (representative index, multiplicity), in first-occurrence order.
  std::vector<std::pair<std::size_t, std::uint64_t>> classes;
  for (std::size_t i = 0; i < components.size(); ++i) {
    auto it = std::find_if(classes.begin(), classes.end(),
                           [&](const auto& c) { return same_class(c.first, i); });
    if (it == classes.end()) {
      classes.emplace_back(i, 1);
    } else {
      ++it->second;
    }
  }
  BigInt product(1);
  for (const auto& [representative, multiplicity] : classes) {
    BigInt c = CountComponent(components[representative], to);
    if (c.IsZero()) return BigInt(0);
    if (multiplicity > 1) c = BigInt::Pow(c, multiplicity);
    product *= c;
  }
  return product;
}

bool ExistsHom(const Structure& from, const Structure& to) {
  for (const Structure& component : from.Components()) {
    if (component.DomainSize() == 0) {
      bool present = true;
      for (RelationId r = 0; r < component.schema().NumRelations(); ++r) {
        if (!component.Facts(r).empty() && to.Facts(r).empty()) present = false;
      }
      if (!present) return false;
      continue;
    }
    if (component.NumFacts() == 0) {
      if (to.DomainSize() == 0) return false;
      continue;
    }
    bool found = false;
    std::function<bool(const std::vector<Element>&)> visit =
        [&found](const std::vector<Element>&) {
          found = true;
          return false;  // Stop at the first hit.
        };
    Matcher matcher(component, to, visit, nullptr);
    matcher.Run();
    if (!found) return false;
  }
  return true;
}

BigInt CountInjectiveHoms(const Structure& from, const Structure& to) {
  if (from.DomainSize() > to.DomainSize()) return BigInt(0);
  // Injectivity couples components, so match the whole structure at once.
  BigInt count(0);
  std::function<bool(const std::vector<Element>&)> visit =
      [&count](const std::vector<Element>&) {
        count += BigInt(1);
        return true;
      };
  // Nullary facts must still be present.
  for (RelationId r = 0; r < from.schema().NumRelations(); ++r) {
    if (from.schema().Arity(r) == 0 && !from.Facts(r).empty() &&
        to.Facts(r).empty()) {
      return BigInt(0);
    }
  }
  std::vector<bool> used(to.DomainSize(), false);
  Matcher matcher(from, to, visit, &used);
  matcher.Run();
  return count;
}

BigInt CountHomsByEnumeration(const Structure& from, const Structure& to) {
  BigInt count(0);
  std::function<bool(const std::vector<Element>&)> visit =
      [&count](const std::vector<Element>&) {
        count += BigInt(1);
        return true;
      };
  for (RelationId r = 0; r < from.schema().NumRelations(); ++r) {
    if (from.schema().Arity(r) == 0 && !from.Facts(r).empty() &&
        to.Facts(r).empty()) {
      return BigInt(0);
    }
  }
  Matcher matcher(from, to, visit, nullptr);
  matcher.Run();
  return count;
}

BigInt CountHomsNaive(const Structure& from, const Structure& to) {
  const std::size_t n = from.DomainSize();
  const std::size_t m = to.DomainSize();
  // Check nullary facts up front.
  for (RelationId r = 0; r < from.schema().NumRelations(); ++r) {
    if (from.schema().Arity(r) == 0 && !from.Facts(r).empty() &&
        to.Facts(r).empty()) {
      return BigInt(0);
    }
  }
  if (n == 0) return BigInt(1);
  if (m == 0) return BigInt(0);
  std::vector<Element> assignment(n, 0);
  BigInt count(0);
  for (;;) {
    bool ok = true;
    for (RelationId r = 0; r < from.schema().NumRelations() && ok; ++r) {
      for (const Tuple& t : from.Facts(r)) {
        Tuple image(t.size());
        for (std::size_t i = 0; i < t.size(); ++i) image[i] = assignment[t[i]];
        if (!to.HasFact(r, image)) {
          ok = false;
          break;
        }
      }
    }
    if (ok) count += BigInt(1);
    // Advance the odometer.
    std::size_t i = 0;
    while (i < n && ++assignment[i] == m) {
      assignment[i] = 0;
      ++i;
    }
    if (i == n) break;
  }
  return count;
}

bool EnumerateHoms(
    const Structure& from, const Structure& to,
    const std::function<bool(const std::vector<Element>&)>& visit) {
  for (RelationId r = 0; r < from.schema().NumRelations(); ++r) {
    if (from.schema().Arity(r) == 0 && !from.Facts(r).empty() &&
        to.Facts(r).empty()) {
      return true;  // No homs; vacuously completed.
    }
  }
  Matcher matcher(from, to, visit, nullptr);
  return matcher.Run();
}

}  // namespace bagdet
