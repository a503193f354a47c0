// bagdet_cli: command-line front-end for the determinacy checker.
//
// Usage:
//   bagdet_cli [flags] cq   <file>    decide bag-determinacy of boolean CQs
//   bagdet_cli [flags] path <file>    decide path-query determinacy (Thm. 1)
//   bagdet_cli eval <rules> <data>    evaluate every rule on a database
//   bagdet_cli [flags] --serve <file> batch-serve many cq instances
//   bagdet_cli -                      read from stdin (cq mode)
//
// Flags (cq and serve modes):
//   --deadline-ms=N     abort the decision after N milliseconds
//   --max-memory-mb=N   abort when governed kernels charge more than N MiB
// Both accept "--flag N" and "--flag=N". When a limit trips the process
// prints the typed execution status and exits with code 3 (0 = determined,
// 1 = not determined, 2 = usage/input error).
//
// Serve mode: the input holds MANY instances separated by blank lines
// (each block is a cq program: views first, query last; every block shares
// one schema). All instances are submitted to a persistent
// DeterminacyService (serve/service.h) — one shared pool/cache, the flag
// limits applied per request — and the process drains before exiting. Exit
// code is the worst outcome across the batch: 2 usage/parse error, 3 if
// any request was shed or declined, else 1 if any verdict was NOT
// determined, else 0.
//
// CQ input: datalog rules, one per line; the LAST rule is the query, all
// earlier rules are views. Example:
//   v1() :- P(u,x), R(x,y)
//   v2() :- R(x,y), S(y,z)
//   q()  :- P(u,x), R(x,y), S(y,z)
//
// Path input: first line is the query word, remaining lines are view
// words, e.g.:
//   ABCD
//   ABC
//   BC
//   BCD
//
// Eval data input: a fact list like "R(0,1), S(1,2), domain 5".

#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/determinacy.h"
#include "path/path_query.h"
#include "serve/service.h"
#include "query/parser.h"
#include "structs/text.h"
#include "util/exec_context.h"

namespace {

int RunCqMode(const std::string& text, const bagdet::ExecLimits& limits) {
  using namespace bagdet;
  QueryParser parser;
  std::vector<ConjunctiveQuery> rules = parser.ParseProgram(text);
  if (rules.empty()) {
    std::cerr << "error: no rules given\n";
    return 2;
  }
  ConjunctiveQuery query = rules.back();
  rules.pop_back();
  DeterminacyResult result;
  if (limits.deadline_ms != 0 || limits.max_memory_bytes != 0) {
    ExecContext exec(limits);
    ExecStatus status;
    std::optional<DeterminacyResult> decision = RunGoverned(
        exec, &status, [&] { return DecideBagDeterminacy(rules, query); });
    if (!decision.has_value()) {
      std::cout << "execution limit tripped: " << status.ToString() << "\n";
      return 3;
    }
    result = std::move(*decision);
  } else {
    result = DecideBagDeterminacy(rules, query);
  }
  std::cout << result.Summary() << "\n";
  if (result.counterexample.has_value()) {
    auto issue = VerifyCounterexample(result.analysis, *result.counterexample);
    std::cout << "counterexample verification: "
              << (issue ? *issue : std::string("OK (exact)")) << "\n";
  }
  return result.determined ? 0 : 1;
}

int RunServeMode(const std::string& text, const bagdet::ExecLimits& limits) {
  using namespace bagdet;
  // One parser across every block: relations accumulate into one schema,
  // so all instances target the same persistent pool.
  QueryParser parser;
  std::vector<ServeRequest> requests;
  std::istringstream lines(text);
  std::string line, block;
  auto flush_block = [&]() {
    if (block.find_first_not_of(" \t\r\n") == std::string::npos) {
      block.clear();
      return;
    }
    std::vector<ConjunctiveQuery> rules = parser.ParseProgram(block);
    block.clear();
    if (rules.empty()) return;
    ServeRequest req;
    req.query = rules.back();
    rules.pop_back();
    req.views = std::move(rules);
    req.limits = limits;
    requests.push_back(std::move(req));
  };
  while (std::getline(lines, line)) {
    const bool blank =
        line.find_first_not_of(" \t\r") == std::string::npos;
    if (blank) {
      flush_block();
    } else {
      block += line;
      block += '\n';
    }
  }
  flush_block();
  if (requests.empty()) {
    std::cerr << "error: no instances given\n";
    return 2;
  }

  DeterminacyService service;
  std::vector<std::future<ServeResponse>> futures;
  futures.reserve(requests.size());
  for (ServeRequest& req : requests) {
    futures.push_back(service.Submit(std::move(req)));
  }

  bool any_rejected = false;
  bool any_undetermined = false;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ServeResponse resp = futures[i].get();
    std::cout << "request " << i << ": " << ServeOutcomeName(resp.outcome);
    switch (resp.outcome) {
      case ServeOutcome::kAnswered:
      case ServeOutcome::kDegraded:
        std::cout << (resp.result->determined ? " - DETERMINED"
                                              : " - NOT determined");
        if (resp.degraded) {
          std::cout << " (degraded: " << resp.status.ToString() << ")";
        }
        any_undetermined |= !resp.result->determined;
        break;
      case ServeOutcome::kShed:
      case ServeOutcome::kDeclined:
        std::cout << " - " << resp.status.ToString();
        if (!resp.message.empty()) std::cout << " (" << resp.message << ")";
        any_rejected = true;
        break;
    }
    if (resp.retries != 0) std::cout << " [retries " << resp.retries << "]";
    std::cout << "\n";
  }
  service.Shutdown();

  const ServiceStats stats = service.stats();
  std::cout << "serve summary: " << stats.submitted << " requests - "
            << stats.answered << " answered, " << stats.degraded
            << " degraded, " << stats.shed << " shed, " << stats.declined
            << " declined; retries " << stats.retries << "; cache "
            << stats.cache_hits << " hits / " << stats.cache_misses
            << " misses; generation " << stats.generation << "\n";
  if (any_rejected) return 3;
  return any_undetermined ? 1 : 0;
}

int RunPathMode(const std::string& text) {
  using namespace bagdet;
  auto schema = std::make_shared<Schema>();
  std::istringstream lines(text);
  std::string line;
  std::vector<PathQuery> words;
  while (std::getline(lines, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty() || line[0] == '#') continue;
    words.push_back(PathQuery::FromWord(line, schema));
  }
  if (words.empty()) {
    std::cerr << "error: no words given\n";
    return 2;
  }
  PathQuery query = words.front();
  std::vector<PathQuery> views(words.begin() + 1, words.end());
  PathDeterminacyResult result = DecidePathDeterminacy(query, views);
  std::cout << "q = " << query.ToString() << ", |V| = " << views.size()
            << "\n";
  if (result.determined) {
    std::cout << "DETERMINED (set- and bag-semantics coincide, Theorem 1); "
                 "prefix path:";
    for (const PrefixStep& step : result.path) {
      std::cout << " " << step.from_prefix << "->" << step.to_prefix;
    }
    std::cout << "\n";
    return 0;
  }
  std::cout << "NOT determined";
  if (result.counterexample.has_value()) {
    std::cout << "; counterexample over "
              << result.counterexample->first.DomainSize() << " elements built"
              << " (Appendix B)";
  }
  std::cout << "\n";
  return 1;
}

int RunEvalMode(const std::string& rules_text, const std::string& data_text) {
  using namespace bagdet;
  QueryParser parser;
  std::vector<ConjunctiveQuery> rules = parser.ParseProgram(rules_text);
  Structure data = ParseStructure(data_text, parser.schema());
  std::cout << "database: " << data.NumFacts() << " facts over "
            << data.DomainSize() << " elements\n";
  for (const ConjunctiveQuery& rule : rules) {
    std::cout << rule.ToString() << "\n";
    if (rule.IsBoolean()) {
      std::cout << "  count = " << rule.CountHomomorphisms(data) << "\n";
      continue;
    }
    for (const auto& [tuple, count] : rule.Evaluate(data)) {
      std::cout << "  (";
      for (std::size_t i = 0; i < tuple.size(); ++i) {
        std::cout << (i ? "," : "") << tuple[i];
      }
      std::cout << ") x " << count << "\n";
    }
  }
  return 0;
}

std::string ReadAll(const std::string& path) {
  if (path == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    return buffer.str();
  }
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// Consumes "--name N" / "--name=N" from args; returns false on a
/// malformed value (missing or non-numeric).
bool TakeUint64Flag(std::vector<std::string>* args, const std::string& name,
                    std::uint64_t* out) {
  for (std::size_t i = 0; i < args->size(); ++i) {
    const std::string& arg = (*args)[i];
    std::string value;
    if (arg == name) {
      if (i + 1 >= args->size()) return false;
      value = (*args)[i + 1];
      args->erase(args->begin() + i, args->begin() + i + 2);
    } else if (arg.rfind(name + "=", 0) == 0) {
      value = arg.substr(name.size() + 1);
      args->erase(args->begin() + i);
    } else {
      continue;
    }
    try {
      std::size_t used = 0;
      *out = std::stoull(value, &used);
      return used == value.size();
    } catch (const std::exception&) {
      return false;
    }
  }
  return true;  // Flag absent: leave *out untouched.
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::vector<std::string> args(argv + 1, argv + argc);
    bagdet::ExecLimits limits;
    std::uint64_t max_memory_mb = 0;
    if (!TakeUint64Flag(&args, "--deadline-ms", &limits.deadline_ms) ||
        !TakeUint64Flag(&args, "--max-memory-mb", &max_memory_mb)) {
      std::cerr << "error: --deadline-ms/--max-memory-mb need a numeric "
                   "value\n";
      return 2;
    }
    limits.max_memory_bytes = max_memory_mb * 1024 * 1024;
    std::string mode = "cq";
    for (auto it = args.begin(); it != args.end(); ++it) {
      if (*it == "--serve") {
        mode = "serve";
        args.erase(it);
        break;
      }
    }
    if (args.size() == 3 && args[0] == "eval") {
      return RunEvalMode(ReadAll(args[1]), ReadAll(args[2]));
    }
    std::string path = "-";
    if (args.size() == 1) {
      path = args[0];
    } else if (args.size() == 2 && mode == "cq") {
      mode = args[0];
      path = args[1];
    } else if (!args.empty()) {
      std::cerr << "usage: bagdet_cli [--deadline-ms N] [--max-memory-mb N] "
                   "[--serve] [cq|path] <file|->\n"
                << "       bagdet_cli eval <rules> <data>\n";
      return 2;
    }
    if (mode == "path") return RunPathMode(ReadAll(path));
    if (mode == "serve") return RunServeMode(ReadAll(path), limits);
    return RunCqMode(ReadAll(path), limits);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
