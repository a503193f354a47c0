// bagdet: an open-addressed index from names to dense ids.
//
// The index stores ids only. Its owner keeps the names, by id, and passes an
// accessor `name_of(id)` to every call that compares or rehashes names. So
// the names may live anywhere and move freely: a growing std::vector of short
// strings relocates their characters, which would leave string_view keys
// dangling. Lookups take a std::string_view and build no std::string.

#ifndef BAGDET_UTIL_NAME_INDEX_H_
#define BAGDET_UTIL_NAME_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

namespace bagdet {

class NameIndex {
 public:
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  /// The id stored under `name`, or kAbsent.
  template <class NameOf>
  std::uint32_t Find(std::string_view name, const NameOf& name_of) const {
    if (slots_.empty()) return kAbsent;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = Hash(name) & mask;; i = (i + 1) & mask) {
      const std::uint32_t id = slots_[i];
      if (id == kAbsent || name_of(id) == name) return id;
    }
  }

  /// Stores `id` under `name`, which must be absent. Keeps the load at or
  /// below one half, rehashing the stored ids through `name_of` to grow.
  template <class NameOf>
  void Insert(std::string_view name, std::uint32_t id, const NameOf& name_of) {
    if (2 * (size_ + 1) > slots_.size()) {
      const std::vector<std::uint32_t> old = std::move(slots_);
      slots_.assign(std::max<std::size_t>(16, 2 * old.size()), kAbsent);
      for (std::uint32_t stored : old) {
        if (stored != kAbsent) Place(name_of(stored), stored);
      }
    }
    Place(name, id);
    ++size_;
  }

  /// Forgets every id and keeps the capacity.
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), kAbsent);
    size_ = 0;
  }

 private:
  static std::size_t Hash(std::string_view name) {
    return std::hash<std::string_view>{}(name);
  }

  void Place(std::string_view name, std::uint32_t id) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = Hash(name) & mask;
    while (slots_[i] != kAbsent) i = (i + 1) & mask;
    slots_[i] = id;
  }

  std::vector<std::uint32_t> slots_;  // power-of-two size, or empty
  std::size_t size_ = 0;
};

}  // namespace bagdet

#endif  // BAGDET_UTIL_NAME_INDEX_H_
