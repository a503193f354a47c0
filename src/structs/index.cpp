#include "structs/index.h"

namespace bagdet {

StructureIndex::StructureIndex(const Structure& s)
    : domain_size_(s.DomainSize()) {
  const std::size_t num_relations = s.schema().NumRelations();
  positions_.resize(num_relations);
  for (RelationId r = 0; r < num_relations; ++r) {
    const std::size_t arity = s.schema().Arity(r);
    const std::vector<Tuple>& facts = s.Facts(r);
    positions_[r].resize(arity);
    for (std::size_t pos = 0; pos < arity; ++pos) {
      PositionIndex& index = positions_[r][pos];
      // Counting sort of fact ids by the element at `pos`.
      index.starts.assign(domain_size_ + 1, 0);
      for (const Tuple& fact : facts) ++index.starts[fact[pos] + 1];
      for (std::size_t v = 1; v <= domain_size_; ++v) {
        index.starts[v] += index.starts[v - 1];
      }
      index.fact_ids.resize(facts.size());
      std::vector<std::uint32_t> cursor(index.starts.begin(),
                                        index.starts.end() - 1);
      for (std::uint32_t id = 0; id < facts.size(); ++id) {
        index.fact_ids[cursor[facts[id][pos]]++] = id;
      }
    }
  }
}

}  // namespace bagdet
