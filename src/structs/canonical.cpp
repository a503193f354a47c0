#include "structs/canonical.h"

#include <algorithm>

#include "structs/refinement.h"
#include "util/exec_context.h"
#include "util/failpoint.h"
#include "util/hash.h"

namespace bagdet {

namespace {

void AppendU32(std::string* out, std::uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

std::uint64_t ReadU32(const std::string& bytes, std::size_t offset) {
  return static_cast<std::uint32_t>(
      (static_cast<unsigned char>(bytes[offset])) |
      (static_cast<unsigned char>(bytes[offset + 1]) << 8) |
      (static_cast<unsigned char>(bytes[offset + 2]) << 16) |
      (static_cast<unsigned char>(bytes[offset + 3]) << 24));
}

/// 64-bit digest of the schema (names and arities, in relation-id order),
/// so keys of structures over different schemas never compare equal.
std::uint64_t SchemaDigest(const Schema& schema) {
  std::uint64_t h = 0x8c6f5d4b3a291807ull;
  for (RelationId r = 0; r < schema.NumRelations(); ++r) {
    h = MixHash(h, schema.Arity(r));
    for (char ch : schema.Name(r)) {
      h = MixHash(h, static_cast<unsigned char>(ch));
    }
    h = MixHash(h, 0xff);  // Name terminator.
  }
  return h;
}

std::uint64_t HashBytes(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a.
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Serializes the component under the discrete coloring (element e is
/// renamed to colors[e]): per *non-empty* relation in id order, the
/// relation id and its sorted list of relabeled tuples. Empty relations
/// are skipped so the certificate is invariant under schema growth
/// (schemas are shared and append-only). Also used for empty-domain
/// (nullary-fact) components, where the coloring is trivially empty.
std::string SerializeLeaf(const Structure& c,
                          const std::vector<std::uint32_t>& colors) {
  std::string out;
  AppendU32(&out, static_cast<std::uint32_t>(c.DomainSize()));
  for (RelationId r = 0; r < c.schema().NumRelations(); ++r) {
    const std::vector<Tuple>& facts = c.Facts(r);
    if (facts.empty()) continue;
    AppendU32(&out, r);
    AppendU32(&out, static_cast<std::uint32_t>(facts.size()));
    std::vector<Tuple> relabeled;
    relabeled.reserve(facts.size());
    for (const Tuple& t : facts) {
      Tuple mapped(t.size());
      for (std::size_t i = 0; i < t.size(); ++i) mapped[i] = colors[t[i]];
      relabeled.push_back(std::move(mapped));
    }
    std::sort(relabeled.begin(), relabeled.end());
    for (const Tuple& t : relabeled) {
      for (Element e : t) AppendU32(&out, e);
    }
  }
  return out;
}

/// True iff swapping elements `a` and `b` is an automorphism of `s`.
bool TranspositionIsAutomorphism(const Structure& s, Element a, Element b) {
  for (RelationId r = 0; r < s.schema().NumRelations(); ++r) {
    for (const Tuple& t : s.Facts(r)) {
      bool touched = false;
      Tuple mapped(t.size());
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i] == a) {
          mapped[i] = b;
          touched = true;
        } else if (t[i] == b) {
          mapped[i] = a;
          touched = true;
        } else {
          mapped[i] = t[i];
        }
      }
      if (touched && !s.HasFact(r, mapped)) return false;
    }
  }
  return true;
}

/// Individualization–refinement search: explores every branch of the
/// canonical-labeling tree and keeps the lexicographically smallest leaf
/// serialization. The explored branch *set* is isomorphism-invariant (the
/// target cell is chosen by canonical color id, and every member of the
/// cell is tried), so the minimum is too.
///
/// Pruning: a candidate is skipped when a transposition with an
/// already-explored candidate of the same cell is an automorphism — the
/// skipped subtree is then the automorphism's image of an explored one
/// and contributes the same leaf certificates (labelings differ only by
/// an automorphism, which leaves the relabeled fact set unchanged). This
/// collapses automorphism-rich components (cliques, stars, unions of
/// equal pieces) from factorial to near-linear; components with sparse
/// automorphism groups still pay the full branch set.
void SearchMinCertificate(const Structure& c,
                          const std::vector<std::uint32_t>& colors,
                          std::size_t num_colors, std::string* best) {
  // Automorphism-sparse components pay the full branch set, which can be
  // exponential — each tree node is a governed checkpoint.
  ExecCheckPoint("canonical.search");
  BAGDET_FAILPOINT("canonical/branch");
  const std::size_t n = c.DomainSize();
  if (num_colors == n) {
    std::string leaf = SerializeLeaf(c, colors);
    if (best->empty() || leaf < *best) *best = std::move(leaf);
    return;
  }
  // Target cell: smallest color id with at least two members.
  std::uint32_t target = 0;
  {
    std::vector<std::size_t> class_size(num_colors, 0);
    for (std::uint32_t color : colors) ++class_size[color];
    while (class_size[target] < 2) ++target;
  }
  std::vector<Element> explored;
  for (std::size_t e = 0; e < n; ++e) {
    if (colors[e] != target) continue;
    bool equivalent_to_explored = false;
    for (Element prev : explored) {
      if (TranspositionIsAutomorphism(c, prev, static_cast<Element>(e))) {
        equivalent_to_explored = true;
        break;
      }
    }
    if (equivalent_to_explored) continue;
    explored.push_back(static_cast<Element>(e));
    std::vector<std::uint32_t> branch = colors;
    branch[e] = static_cast<std::uint32_t>(num_colors);  // Individualize.
    // Re-refine from the individualized coloring (the seeded flavor of
    // RefineColors — same signature construction and rank-recoloring, so
    // color ids stay isomorphism-invariant functions of the branch).
    ColorRefinementResult refined =
        RefineColors(c, &branch, num_colors + 1);
    SearchMinCertificate(c, refined.color_of_element, refined.num_colors,
                         best);
  }
}

}  // namespace

std::string ComponentCertificate(const Structure& component) {
  const std::size_t n = component.DomainSize();
  if (n == 0) {
    return SerializeLeaf(component, {});
  }
  ColorRefinementResult seed = RefineColors(component);
  std::string best;
  SearchMinCertificate(component, seed.color_of_element, seed.num_colors,
                       &best);
  return best;
}

std::vector<CanonicalKey> ComponentKeysOf(const Structure& s) {
  const std::vector<std::string>& certificates =
      s.CanonicalData().component_certificates;
  const std::uint64_t digest = SchemaDigest(s.schema());
  std::vector<CanonicalKey> keys(certificates.size());
  for (std::size_t i = 0; i < certificates.size(); ++i) {
    const std::string& certificate = certificates[i];
    CanonicalKey& key = keys[i];
    key.schema_digest = digest;
    // A component certificate starts with its domain size.
    AppendU32(&key.bytes,
              static_cast<std::uint32_t>(ReadU32(certificate, 0)));
    AppendU32(&key.bytes, 1);
    AppendU32(&key.bytes, static_cast<std::uint32_t>(certificate.size()));
    key.bytes += certificate;
    key.hash = MixHash(HashBytes(key.bytes), digest);
  }
  return keys;
}

StructureCanonicalData ComputeCanonicalData(const Structure& s) {
  StructureCanonicalData data;
  for (const Structure& component : s.Components()) {
    data.component_certificates.push_back(ComponentCertificate(component));
  }
  std::vector<std::string> sorted = data.component_certificates;
  std::sort(sorted.begin(), sorted.end());
  AppendU32(&data.certificate, static_cast<std::uint32_t>(s.DomainSize()));
  AppendU32(&data.certificate, static_cast<std::uint32_t>(sorted.size()));
  for (const std::string& cert : sorted) {
    AppendU32(&data.certificate, static_cast<std::uint32_t>(cert.size()));
    data.certificate += cert;
  }
  return data;
}

CanonicalKey CanonicalKeyOf(const Structure& s) {
  CanonicalKey key;
  key.schema_digest = SchemaDigest(s.schema());
  key.bytes = s.CanonicalData().certificate;
  key.hash = MixHash(HashBytes(key.bytes), key.schema_digest);
  return key;
}

}  // namespace bagdet
