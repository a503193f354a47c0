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
/// assignment; returning false aborts the search. Candidate facts are
/// narrowed through the target's positional index — the most selective
/// bound position drives the scan, intersected with the runner-up bucket
/// when the two are within 2× of each other.
class Matcher {
 public:
  Matcher(const Structure& from, const Structure& to,
          const std::function<bool(const std::vector<Element>&)>& visit)
      : to_(to), index_(to.Index()), visit_(visit),
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
        assignment_[var] = fact[pos];
        bound.push_back(var);
      } else if (assignment_[var] != fact[pos]) {
        ok = false;
      }
    }
    bool keep_going = true;
    if (ok) keep_going = RunFrom(task_index + 1);
    for (Element var : bound) assignment_[var] = kUnassigned;
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
        assignment_[task.element] = image;
        bool keep_going = RunFrom(task_index + 1);
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
  std::vector<Element> assignment_;
  std::vector<Task> plan_;
  // Per-depth scratch of vars bound at that frame (avoids a heap
  // allocation per visited fact).
  std::vector<std::vector<Element>> bound_stack_;
};

/// DP table of the variable-elimination counter: packed keys — `width`
/// Elements stored back to back in one arena — mapped to BigInt counts,
/// kept in insertion order. A key space of at most kDirectCells cells
/// (|dom(to)|^width) is indexed directly, the key read as a base-|dom(to)|
/// numeral: no hash, probe or key compare. Larger key spaces use open
/// addressing. `Reset` empties the table for the next DP step and keeps
/// its capacity, so a plan reuses two tables for all its steps.
class FlatTable {
 public:
  /// Targets of up to 256 elements index width-2 keys directly; 2^16
  /// slots cost 256 KiB per table.
  static constexpr std::size_t kDirectCells = std::size_t{1} << 16;

  /// Empties the table and sets it up for keys of `width` elements of a
  /// `domain`-element target; a hash-mode table is presized for `expect`
  /// entries. Clears every slot the old contents used, whatever the old
  /// mode, width or domain, so no stale slot survives.
  void Reset(std::size_t width, std::size_t domain, std::size_t expect) {
    if (direct_) {
      for (std::size_t entry = 0; entry < counts_.size(); ++entry) {
        slots_[DirectIndex(Key(entry))] = 0;
      }
    } else {
      std::fill_n(slots_.begin(), used_slots_, 0u);
    }
    arena_.clear();
    counts_.clear();
    std::size_t cells = 1;
    for (std::size_t i = 0; i < width && cells <= kDirectCells; ++i) {
      cells *= domain;
    }
    const bool direct = cells <= kDirectCells;
    std::size_t used = cells;
    if (!direct) {
      used = 16;
      while (expect * 4 >= used * 3) used *= 2;
    }
    if (slots_.size() < used) {
      BAGDET_FAILPOINT("hom/dp_table_grow");
      slots_.resize(used, 0);
    }
    width_ = width;
    domain_ = domain;
    direct_ = direct;
    used_slots_ = used;
  }

  std::size_t size() const { return counts_.size(); }
  bool empty() const { return counts_.empty(); }

  const Element* Key(std::size_t entry) const {
    return arena_.data() + entry * width_;
  }
  const BigInt& Count(std::size_t entry) const { return counts_[entry]; }

  /// table[key] += delta, inserting the key when absent.
  void Add(const Element* key, const BigInt& delta) {
    std::uint32_t& slot = direct_ ? slots_[DirectIndex(key)] : HashSlot(key);
    if (slot != 0) {
      counts_[slot - 1] += delta;
      return;
    }
    arena_.insert(arena_.end(), key, key + width_);
    counts_.push_back(delta);
    slot = static_cast<std::uint32_t>(counts_.size());
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
  std::size_t DirectIndex(const Element* key) const {
    std::size_t index = 0;
    for (std::size_t i = 0; i < width_; ++i) index = index * domain_ + key[i];
    return index;
  }

  std::uint64_t HashKey(const Element* key) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < width_; ++i) {
      h ^= key[i];
      h *= 0xbf58476d1ce4e5b9ull;
    }
    return h ^ (h >> 29);
  }

  bool KeyEquals(std::size_t entry, const Element* key) const {
    const Element* stored = Key(entry);
    for (std::size_t i = 0; i < width_; ++i) {
      if (stored[i] != key[i]) return false;
    }
    return true;
  }

  /// The hash-mode slot holding `key`, or the empty slot it goes into
  /// (after growing, when one more entry would pass 3/4 load).
  std::uint32_t& HashSlot(const Element* key) {
    if ((counts_.size() + 1) * 4 >= used_slots_ * 3) Grow();
    const std::size_t mask = used_slots_ - 1;
    std::size_t slot = HashKey(key) & mask;
    while (slots_[slot] != 0 && !KeyEquals(slots_[slot] - 1, key)) {
      slot = (slot + 1) & mask;
    }
    return slots_[slot];
  }

  void Grow() {
    BAGDET_FAILPOINT("hom/dp_table_grow");
    if (slots_.size() < used_slots_ * 2) slots_.resize(used_slots_ * 2, 0);
    std::fill_n(slots_.begin(), used_slots_, 0u);
    used_slots_ *= 2;
    const std::size_t mask = used_slots_ - 1;
    for (std::size_t entry = 0; entry < counts_.size(); ++entry) {
      std::size_t slot = HashKey(Key(entry)) & mask;
      while (slots_[slot] != 0) slot = (slot + 1) & mask;
      slots_[slot] = static_cast<std::uint32_t>(entry + 1);
    }
  }

  std::size_t width_ = 0;
  std::size_t domain_ = 0;
  bool direct_ = false;
  // Slots in use: the key space's cells (direct) or the power-of-two
  // probe range (hash). Every slot outside them is zero.
  std::size_t used_slots_ = 0;
  std::vector<Element> arena_;   // size() * width_ elements
  std::vector<BigInt> counts_;   // parallel to packed keys
  std::vector<std::uint32_t> slots_;  // entry index + 1; 0 = empty
};

/// Runs the variable-elimination DP over a fixed plan.
BigInt RunDpPlan(const std::vector<Task>& plan, const Structure& component,
                 const Structure& to) {
  const StructureIndex& to_index = to.Index();
  const std::size_t domain = to.DomainSize();
  // Last atom-task index using each element of the component.
  std::vector<std::size_t> last_use(component.DomainSize(), 0);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    for (Element e : plan[i].atom) last_use[e] = i;
  }
  // The table maps assignments of the live variables (kept sorted by
  // variable id in `live`) to the number of extensions producing them.
  // Each step fills `next` from `table`, then the two swap.
  FlatTable tables[2];
  FlatTable* table = &tables[0];
  FlatTable* next = &tables[1];
  table->Reset(0, domain, 1);
  table->Add(nullptr, BigInt(1));
  // Per-step scratch, sized anew each step but allocated once per plan.
  std::vector<Element> live, next_live, kept, projected;
  std::vector<std::size_t> key_slot, same_as, kept_from_key, kept_from_fact;
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
      isolated_factor *= BigInt(static_cast<std::int64_t>(domain));
      continue;
    }
    const std::vector<Tuple>& facts = to.Facts(task.relation);
    if (task.atom.empty()) {
      // Nullary atom: a presence test, no bindings.
      if (facts.empty()) return BigInt(0);
      continue;
    }
    // New live set: current ∪ atom vars; `kept` drops vars last used here.
    next_live = live;
    for (Element var : task.atom) {
      if (std::find(next_live.begin(), next_live.end(), var) ==
          next_live.end()) {
        next_live.push_back(var);
      }
    }
    std::sort(next_live.begin(), next_live.end());
    kept.clear();
    for (Element var : next_live) {
      if (last_use[var] > i) kept.push_back(var);
    }
    // Resolve every variable lookup once for the whole step. A fact
    // matches an entry when each position bound by the entry's key
    // (key_slot) carries the key's value and each repeat of a new
    // variable (same_as) carries the value of its first position.
    constexpr std::size_t npos = static_cast<std::size_t>(-1);
    auto index_in = [](const std::vector<Element>& vars, Element var) {
      const auto it = std::find(vars.begin(), vars.end(), var);
      return it == vars.end() ? npos
                              : static_cast<std::size_t>(it - vars.begin());
    };
    key_slot.resize(task.atom.size());
    same_as.resize(task.atom.size());
    for (std::size_t pos = 0; pos < task.atom.size(); ++pos) {
      key_slot[pos] = index_in(live, task.atom[pos]);
      same_as[pos] = npos;
      if (key_slot[pos] != npos) continue;
      for (std::size_t prev = 0; prev < pos; ++prev) {
        if (task.atom[prev] == task.atom[pos]) {
          same_as[pos] = prev;
          break;
        }
      }
    }
    // Each kept variable is read from the entry's key when it was live,
    // otherwise from the first atom position that binds it.
    kept_from_key.resize(kept.size());
    kept_from_fact.resize(kept.size());
    for (std::size_t k = 0; k < kept.size(); ++k) {
      kept_from_key[k] = index_in(live, kept[k]);
      kept_from_fact[k] = index_in(task.atom, kept[k]);
    }
    next->Reset(kept.size(), domain, table->size());
    const std::uint64_t prev_table_bytes = table->ApproxBytes();
    projected.resize(kept.size());
    for (std::size_t entry = 0; entry < table->size(); ++entry) {
      ExecCheckPoint("hom.dp");
      const Element* key = table->Key(entry);
      const BigInt& count = table->Count(entry);
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
        bool ok = true;
        for (std::size_t pos = 0; pos < fact.size() && ok; ++pos) {
          if (key_slot[pos] != npos) {
            ok = fact[pos] == key[key_slot[pos]];
          } else if (same_as[pos] != npos) {
            ok = fact[pos] == fact[same_as[pos]];
          }
        }
        if (!ok) continue;
        for (std::size_t k = 0; k < kept.size(); ++k) {
          projected[k] = kept_from_key[k] != npos ? key[kept_from_key[k]]
                                                  : fact[kept_from_fact[k]];
        }
        next->Add(projected.data(), count);
      }
      dp_mem.Update(prev_table_bytes + next->ApproxBytes());
    }
    live.swap(kept);
    std::swap(table, next);
    if (table->empty()) return BigInt(0);
  }
  BigInt total(0);
  for (std::size_t entry = 0; entry < table->size(); ++entry) {
    total += table->Count(entry);
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
    Matcher matcher(component, to, visit);
    matcher.Run();
    if (!found) return false;
  }
  return true;
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
  Matcher matcher(from, to, visit);
  return matcher.Run();
}

}  // namespace bagdet
