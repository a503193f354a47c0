#include "structs/text.h"

#include <cctype>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace bagdet {

namespace {

class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  void SkipSpaceAndComments() {
    for (;;) {
      while (pos_ < text_.size() &&
             std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ < text_.size() && text_[pos_] == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      return;
    }
  }

  bool AtEnd() {
    SkipSpaceAndComments();
    return pos_ >= text_.size();
  }

  std::string ReadName() {
    SkipSpaceAndComments();
    std::size_t start = pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        ++pos_;
      } else {
        break;
      }
    }
    if (start == pos_) Fail("expected a name");
    return std::string(text_.substr(start, pos_ - start));
  }

  /// Reads a decimal number no larger than `max`; a larger one fails at
  /// its first digit.
  std::uint64_t ReadNumber(std::uint64_t max) {
    SkipSpaceAndComments();
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      Fail("expected a number");
    }
    const std::size_t start = pos_;
    std::uint64_t value = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      const auto digit = static_cast<std::uint64_t>(text_[pos_] - '0');
      if (value > (max - digit) / 10) {
        pos_ = start;
        Fail("number out of range (max " + std::to_string(max) + ")");
      }
      value = value * 10 + digit;
      ++pos_;
    }
    return value;
  }

  bool TryConsume(char c) {
    SkipSpaceAndComments();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void Expect(char c) {
    if (!TryConsume(c)) Fail(std::string("expected '") + c + "'");
  }

  [[noreturn]] void Fail(const std::string& what) {
    throw std::invalid_argument("structure parse: " + what + " at position " +
                                std::to_string(pos_));
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Structure ParseStructure(std::string_view text,
                         const std::shared_ptr<Schema>& schema) {
  Structure s(schema);
  Cursor cursor(text);
  while (!cursor.AtEnd()) {
    std::string name = cursor.ReadName();
    if (name == "domain") {
      // The domain size plus one must fit: the positional index stores
      // domain_size + 1 bucket offsets.
      s.EnsureDomain(static_cast<std::size_t>(cursor.ReadNumber(
          std::numeric_limits<std::size_t>::max() - 1)));
      cursor.TryConsume(',');  // Optional separator between entries.
      continue;
    }
    Tuple elements;
    cursor.Expect('(');
    if (!cursor.TryConsume(')')) {
      for (;;) {
        elements.push_back(static_cast<Element>(
            cursor.ReadNumber(std::numeric_limits<Element>::max())));
        if (cursor.TryConsume(')')) break;
        cursor.Expect(',');
      }
    }
    RelationId relation = schema->AddRelation(name, elements.size());
    s.AddFact(relation, std::move(elements));
    cursor.TryConsume(',');  // Optional separator between facts.
  }
  return s;
}

std::string FormatStructure(const Structure& s) {
  std::ostringstream os;
  bool first = true;
  Element max_used = 0;
  bool any_used = false;
  for (RelationId r = 0; r < s.schema().NumRelations(); ++r) {
    for (const Tuple& t : s.Facts(r)) {
      if (!first) os << ", ";
      first = false;
      os << s.schema().Name(r) << '(';
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (i != 0) os << ',';
        os << t[i];
        max_used = t[i] > max_used ? t[i] : max_used;
        any_used = true;
      }
      os << ')';
    }
  }
  std::size_t covered = any_used ? static_cast<std::size_t>(max_used) + 1 : 0;
  if (s.DomainSize() > covered) {
    if (!first) os << ", ";
    os << "domain " << s.DomainSize();
  }
  return os.str();
}

}  // namespace bagdet
