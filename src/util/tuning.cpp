#include "util/tuning.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <vector>

namespace bagdet {

namespace {

/// One row of the key table: name, getter into the struct, inclusive
/// bounds. Everything below is driven off this table — parser, serializer,
/// and validation stay in lockstep by construction.
struct KeySpec {
  const char* name;
  std::uint64_t TuningProfile::*u64 = nullptr;   // Exactly one of the two
  std::size_t TuningProfile::*size = nullptr;    // member pointers is set.
  std::uint64_t min = 0;
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
};

const KeySpec kKeys[] = {
    {"order_search_max_atoms", nullptr, &TuningProfile::order_search_max_atoms,
     0, 16},
    {"domain_min_work", &TuningProfile::domain_min_work, nullptr, 0,
     1ull << 50},
    {"parallel_split_min_work", &TuningProfile::parallel_split_min_work,
     nullptr, 0, 1ull << 50},
    {"parallel_split_chunks_per_lane", nullptr,
     &TuningProfile::parallel_split_chunks_per_lane, 1, 64},
    {"hom_num_threads", nullptr, &TuningProfile::hom_num_threads, 0, 4096},
    {"hom_cache_max_entries", nullptr, &TuningProfile::hom_cache_max_entries,
     1, std::numeric_limits<std::size_t>::max()},
    {"hom_cache_max_bytes", &TuningProfile::hom_cache_max_bytes, nullptr, 1,
     std::numeric_limits<std::uint64_t>::max()},
    {"serve_pool_max_classes", nullptr, &TuningProfile::serve_pool_max_classes,
     1, std::numeric_limits<std::size_t>::max()},
    {"serve_pool_max_bytes", &TuningProfile::serve_pool_max_bytes, nullptr, 1,
     std::numeric_limits<std::uint64_t>::max()},
    {"num_threads", nullptr, &TuningProfile::num_threads, 0, 4096},
};

std::uint64_t GetField(const TuningProfile& p, const KeySpec& k) {
  return k.u64 != nullptr ? p.*(k.u64)
                          : static_cast<std::uint64_t>(p.*(k.size));
}

void SetField(TuningProfile* p, const KeySpec& k, std::uint64_t value) {
  if (k.u64 != nullptr) {
    p->*(k.u64) = value;
  } else {
    p->*(k.size) = static_cast<std::size_t>(value);
  }
}

TuningError MakeError(TuningErrorCode code, int line, std::string message) {
  TuningError e;
  e.code = code;
  e.line = line;
  e.message = std::move(message);
  return e;
}

/// Strict unsigned-decimal parse (the whole token must be digits; leading
/// '+'/'-', hex, and empty are syntax errors — a profile is generated
/// output, not hand-tuned config, so there is nothing to be lenient about).
bool ParseU64(const std::string& token, std::uint64_t* out) {
  if (token.empty()) return false;
  std::uint64_t value = 0;
  for (char ch : token) {
    if (ch < '0' || ch > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(ch - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return false;  // Overflow is a syntax error, not a silent clamp.
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

std::string Trim(const std::string& s) {
  std::size_t begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  std::size_t end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

const char* TuningErrorCodeName(TuningErrorCode code) {
  switch (code) {
    case TuningErrorCode::kIoError:
      return "io_error";
    case TuningErrorCode::kSyntaxError:
      return "syntax_error";
    case TuningErrorCode::kUnknownKey:
      return "unknown_key";
    case TuningErrorCode::kOutOfRange:
      return "out_of_range";
  }
  return "unknown";
}

std::string TuningError::ToString() const {
  std::ostringstream out;
  out << "tuning profile error [" << TuningErrorCodeName(code) << "]";
  if (line > 0) out << " line " << line;
  out << ": " << message;
  return out.str();
}

std::optional<TuningError> ValidateTuningProfile(const TuningProfile& profile) {
  for (const KeySpec& key : kKeys) {
    const std::uint64_t value = GetField(profile, key);
    if (value < key.min || value > key.max) {
      std::ostringstream msg;
      msg << key.name << " = " << value << " outside [" << key.min << ", "
          << key.max << "]";
      return MakeError(TuningErrorCode::kOutOfRange, 0, msg.str());
    }
  }
  return std::nullopt;
}

std::optional<TuningProfile> ParseTuningProfile(const std::string& text,
                                                TuningError* error) {
  TuningProfile profile;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = Trim(raw);
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      if (error != nullptr) {
        *error = MakeError(TuningErrorCode::kSyntaxError, line_no,
                           "expected `key = value`, got \"" + line + "\"");
      }
      return std::nullopt;
    }
    const std::string key_name = Trim(line.substr(0, eq));
    const std::string value_str = Trim(line.substr(eq + 1));
    const KeySpec* key = nullptr;
    for (const KeySpec& candidate : kKeys) {
      if (key_name == candidate.name) {
        key = &candidate;
        break;
      }
    }
    if (key == nullptr) {
      if (error != nullptr) {
        *error = MakeError(TuningErrorCode::kUnknownKey, line_no,
                           "unknown key \"" + key_name + "\"");
      }
      return std::nullopt;
    }
    std::uint64_t value = 0;
    if (!ParseU64(value_str, &value)) {
      if (error != nullptr) {
        *error = MakeError(
            TuningErrorCode::kSyntaxError, line_no,
            "value for " + key_name + " is not an unsigned integer: \"" +
                value_str + "\"");
      }
      return std::nullopt;
    }
    if (value < key->min || value > key->max) {
      std::ostringstream msg;
      msg << key->name << " = " << value << " outside [" << key->min << ", "
          << key->max << "]";
      if (error != nullptr) {
        *error = MakeError(TuningErrorCode::kOutOfRange, line_no, msg.str());
      }
      return std::nullopt;
    }
    SetField(&profile, *key, value);
  }
  return profile;
}

std::optional<TuningProfile> LoadTuningProfile(const std::string& path,
                                               TuningError* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) {
      *error = MakeError(TuningErrorCode::kIoError, 0,
                         "cannot open \"" + path + "\"");
    }
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  if (in.bad()) {
    if (error != nullptr) {
      *error = MakeError(TuningErrorCode::kIoError, 0,
                         "read failed for \"" + path + "\"");
    }
    return std::nullopt;
  }
  return ParseTuningProfile(text.str(), error);
}

std::string SerializeTuningProfile(const TuningProfile& profile) {
  std::ostringstream out;
  for (const KeySpec& key : kKeys) {
    out << key.name << " = " << GetField(profile, key) << "\n";
  }
  return out.str();
}

namespace {

/// Active-profile snapshot. Snapshots are heap-allocated, published with
/// release semantics, and never freed: Tuning() hands out references with
/// unbounded lifetime, and profile churn is a startup/test event, not a
/// steady-state one, so the retention is bounded in practice. Every
/// snapshot stays listed in RetainedProfiles() (itself never destroyed),
/// so leak checkers see retained storage rather than a leak.
std::atomic<const TuningProfile*> g_profile{nullptr};
std::mutex g_profile_mu;  // Serializes writers; guards RetainedProfiles().
std::once_flag g_env_once;

std::vector<const TuningProfile*>& RetainedProfiles() {
  static auto* retained = new std::vector<const TuningProfile*>();
  return *retained;
}

void PublishProfile(const TuningProfile& profile) {
  const TuningProfile* snapshot = new TuningProfile(profile);
  RetainedProfiles().push_back(snapshot);
  g_profile.store(snapshot, std::memory_order_release);
}

std::optional<TuningError> ResolveFromEnv() {
  std::lock_guard<std::mutex> lock(g_profile_mu);
  const char* path = std::getenv("BAGDET_TUNING_PROFILE");
  if (path == nullptr || *path == '\0') {
    PublishProfile(TuningProfile{});
    return std::nullopt;
  }
  TuningError error;
  if (std::optional<TuningProfile> loaded = LoadTuningProfile(path, &error)) {
    PublishProfile(*loaded);
    return std::nullopt;
  }
  PublishProfile(TuningProfile{});  // A bad profile degrades, never crashes.
  return error;
}

}  // namespace

const TuningProfile& Tuning() {
  std::call_once(g_env_once, [] {
    if (std::optional<TuningError> error = ResolveFromEnv()) {
      std::fprintf(stderr,
                   "bagdet: BAGDET_TUNING_PROFILE ignored, using defaults: "
                   "%s\n",
                   error->ToString().c_str());
    }
  });
  return *g_profile.load(std::memory_order_acquire);
}

std::optional<TuningError> SetTuningProfile(const TuningProfile& profile) {
  if (std::optional<TuningError> error = ValidateTuningProfile(profile)) {
    return error;
  }
  Tuning();  // Ensure env resolution happened (writer ordering vs call_once).
  std::lock_guard<std::mutex> lock(g_profile_mu);
  PublishProfile(profile);
  return std::nullopt;
}

std::optional<TuningError> ReloadTuningFromEnv() {
  Tuning();  // Force the one-time init first so the two paths never race.
  return ResolveFromEnv();
}

}  // namespace bagdet
