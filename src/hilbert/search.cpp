#include "hilbert/search.h"

#include "util/exec_context.h"
#include "util/failpoint.h"

namespace bagdet {

namespace {

/// Advances a mixed-radix odometer over X-counts; returns false on wrap.
bool NextCounts(std::vector<std::uint64_t>* counts, std::uint64_t bound) {
  for (std::size_t i = 0; i < counts->size(); ++i) {
    if (++(*counts)[i] <= bound) return true;
    (*counts)[i] = 0;
  }
  return false;
}

}  // namespace

std::optional<NonDeterminacyWitness> SearchNonDeterminacy(
    const Theorem2Reduction& reduction, std::uint64_t bound) {
  // Materialize all summaries with their view/query counts first.
  struct Entry {
    bool has_h = false;
    bool has_c = false;
    std::vector<std::uint64_t> x_counts;
    std::vector<BigInt> views;
    std::uint64_t views_fingerprint = 0;  ///< Modular probe for the scan.
    BigInt query;
  };
  // Enumerate the summary grid first, then fill the entries (view counts +
  // fingerprint + query count) in enumeration order, so the scan below
  // (and the witness it returns) is deterministic.
  std::vector<Entry> entries;
  // The frontier grid is (bound+1)^|X| · 4 entries — exponential in the
  // reduction's X-relations — so its materialization is charged against
  // the governing request and every fill/scan step checkpoints.
  ScopedCharge grid_mem("hilbert.search");
  std::vector<std::uint64_t> x_counts(reduction.x_relations.size(), 0);
  do {
    ExecCheckPoint("hilbert.search");
    for (int h = 0; h <= 1; ++h) {
      for (int c = 0; c <= 1; ++c) {
        Entry entry;
        entry.has_h = h == 1;
        entry.has_c = c == 1;
        entry.x_counts = x_counts;
        entries.push_back(std::move(entry));
      }
    }
    grid_mem.Update(static_cast<std::uint64_t>(entries.capacity()) *
                    (sizeof(Entry) + x_counts.size() * sizeof(std::uint64_t)));
  } while (NextCounts(&x_counts, bound));
  for (Entry& entry : entries) {
    ExecCheckPoint("hilbert.search");
    BAGDET_FAILPOINT("hilbert/entry");
    Structure d =
        reduction.MakeStructure(entry.has_h, entry.has_c, entry.x_counts);
    entry.views = reduction.EvaluateViews(d);
    entry.views_fingerprint = CountVectorFingerprint(entry.views);
    entry.query = reduction.query.Count(d);
  }

  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t j = i + 1; j < entries.size(); ++j) {
      ExecCheckPoint("hilbert.search");
      // Word-size modular fingerprints first; the exact BigInt vector
      // comparison only runs on a fingerprint collision.
      if (entries[i].views_fingerprint != entries[j].views_fingerprint) {
        continue;
      }
      if (entries[i].views != entries[j].views) continue;
      if (entries[i].query == entries[j].query) continue;
      NonDeterminacyWitness witness;
      witness.d = reduction.MakeStructure(entries[i].has_h, entries[i].has_c,
                                          entries[i].x_counts);
      witness.d_prime = reduction.MakeStructure(
          entries[j].has_h, entries[j].has_c, entries[j].x_counts);
      witness.view_counts = entries[i].views;
      witness.query_count_d = entries[i].query;
      witness.query_count_d_prime = entries[j].query;
      return witness;
    }
  }
  return std::nullopt;
}

}  // namespace bagdet
