#include "query/parser.h"

#include <stdexcept>

namespace bagdet {

namespace {

// Character classes as explicit ASCII tests: std::isspace and std::isalnum
// under the C locale.
bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

bool IsNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '\'';
}

/// Minimal hand-rolled tokenizer over one rule line. Names are views into
/// the line.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

  bool TryConsume(std::string_view token) {
    SkipSpace();
    if (text_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  void Expect(std::string_view token) {
    if (!TryConsume(token)) {
      throw std::invalid_argument("parse error: expected '" +
                                  std::string(token) + "' at position " +
                                  std::to_string(pos_) + " in: " +
                                  std::string(text_));
    }
  }

  std::string_view ExpectName() {
    SkipSpace();
    std::size_t start = pos_;
    while (pos_ < text_.size() && IsNameChar(text_[pos_])) ++pos_;
    if (start == pos_) {
      throw std::invalid_argument("parse error: expected a name at position " +
                                  std::to_string(pos_) + " in: " +
                                  std::string(text_));
    }
    return text_.substr(start, pos_ - start);
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

ConjunctiveQuery QueryParser::ParseRule(std::string_view line) {
  var_names_.clear();
  var_ids_.Clear();
  relations_.clear();
  args_.clear();
  const auto name_of = [this](VarId v) { return var_names_[v]; };
  auto intern_var = [&](std::string_view name) {
    VarId id = var_ids_.Find(name, name_of);
    if (id == NameIndex::kAbsent) {
      id = static_cast<VarId>(var_names_.size());
      var_names_.push_back(name);
      var_ids_.Insert(name, id, name_of);
    }
    return id;
  };

  Cursor cursor(line);
  std::string_view head_name = cursor.ExpectName();
  std::size_t num_free = 0;
  if (cursor.TryConsume("(")) {
    if (!cursor.TryConsume(")")) {
      do {
        intern_var(cursor.ExpectName());
      } while (cursor.TryConsume(","));
      cursor.Expect(")");
    }
    num_free = var_names_.size();
  }
  cursor.Expect(":-");

  std::string_view relation_name = cursor.ExpectName();
  if (relation_name != "true") {
    while (true) {
      cursor.Expect("(");
      const std::size_t first_arg = args_.size();
      if (!cursor.TryConsume(")")) {
        do {
          args_.push_back(intern_var(cursor.ExpectName()));
        } while (cursor.TryConsume(","));
        cursor.Expect(")");
      }
      relations_.push_back(
          schema_->AddRelation(relation_name, args_.size() - first_arg));
      if (!cursor.TryConsume(",")) break;
      relation_name = cursor.ExpectName();
    }
  }
  cursor.TryConsume(".");
  if (!cursor.AtEnd()) {
    throw std::invalid_argument("parse error: trailing input in: " +
                                std::string(line));
  }
  return ConjunctiveQuery(
      std::string(head_name), schema_,
      std::vector<std::string>(var_names_.begin(), var_names_.end()), num_free,
      relations_, args_);
}

std::vector<ConjunctiveQuery> QueryParser::ParseProgram(
    std::string_view text) {
  std::vector<ConjunctiveQuery> rules;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    std::size_t comment = line.find('#');
    if (comment != std::string_view::npos) line = line.substr(0, comment);
    bool blank = true;
    for (char c : line) {
      if (!IsSpace(c)) blank = false;
    }
    if (!blank) rules.push_back(ParseRule(line));
    start = end + 1;
  }
  return rules;
}

}  // namespace bagdet
