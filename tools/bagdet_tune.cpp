// bagdet_tune: on-machine calibration of the pipeline's dispatch gates.
//
// Every gate in the library's TuningProfile (util/tuning.h) defaults to a
// crossover measured on the 1-core reference host. This tool re-measures
// each crossover on the machine it runs on — the hom-core order-search and
// domain-engage thresholds, thread-pool width, parallel-split chunking —
// using the same seeded generators the differential suites trust
// (structs/generator.h), then writes
//
//   * a tuning profile (`key = value`, loadable via BAGDET_TUNING_PROFILE)
//     re-pointing the library's dispatch defaults at the measured machine,
//   * a JSON report with the machine fingerprint and every sweep's raw
//     timings, uploaded by CI (perf-gate + nightly jobs) so the calibration
//     trajectory per runner stays inspectable.
//
// Every knob swept here is dispatch-only (each gated path is verified
// bit-identical to its alternative; see tests/tuning_test.cpp), so a wrong
// pick costs wall-clock, never correctness — which is what makes an
// automated sweep safe to run in CI.
//
// Usage: bagdet_tune [--dry-run | --full] [--out <profile>] [--report <json>]
//   --dry-run   Minimal sweep: smoke coverage for CI and the
//               nightly artifact. Chosen values are written as usual but a
//               dry-run profile is a liveness artifact, not a calibration.
//   (default)   Bounded sweep: the perf-gate configuration.
//   --full      Extended sizes and repetitions for a committed profile.
// Exit codes: 0 = profile + report written, 1 = write failure, 2 = usage.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hom/hom.h"
#include "structs/generator.h"
#include "structs/schema.h"
#include "structs/structure.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/tuning.h"

#ifdef __unix__
#include <sys/utsname.h>
#include <unistd.h>
#endif

namespace bagdet {
namespace {

enum class Mode { kDryRun, kDefault, kFull };

struct Fingerprint {
  std::string host = "unknown";
  std::string machine = "unknown";
  unsigned cpus = 1;
  unsigned word_bits = sizeof(void*) * 8;

  /// Stable slug used to label profiles/baselines: "<host>-<machine>-<N>c".
  std::string Slug() const {
    std::ostringstream out;
    out << host << "-" << machine << "-" << cpus << "c";
    return out.str();
  }
};

Fingerprint MachineFingerprint() {
  Fingerprint fp;
  const unsigned hw = std::thread::hardware_concurrency();
  fp.cpus = hw == 0 ? 1 : hw;
#ifdef __unix__
  char host[256] = {0};
  if (::gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') {
    fp.host = host;
  }
  struct utsname uts;
  if (::uname(&uts) == 0) fp.machine = uts.machine;
#endif
  return fp;
}

/// Best-of-`reps` wall time of `fn`, in milliseconds. Best-of (not mean)
/// because scheduling noise on shared CI runners is strictly additive.
double TimeMs(const std::function<void()>& fn, int reps) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

/// One measured point of a sweep, serialized into the JSON report.
struct Point {
  std::string label;
  double ms_a = 0.0;  ///< First alternative (meaning depends on the sweep).
  double ms_b = -1.0; ///< Second alternative; < 0 = single-valued point.
};

struct Sweep {
  std::string name;
  std::string columns;  ///< "label, <meaning of a>, <meaning of b>".
  std::vector<Point> points;
  std::string decision;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (ch == '\n') {
      out += "\\n";
    } else {
      out += ch;
    }
  }
  return out;
}

// --- Sweeps ----------------------------------------------------------------

/// Shared hom workload for the order-search / domain-threshold sweeps: a
/// mix of small fast-path pairs and mid-size domain-core pairs.
struct HomWorkload {
  std::vector<std::pair<Structure, Structure>> small;
  std::vector<std::pair<Structure, Structure>> medium;
};

HomWorkload MakeHomWorkload(Mode mode) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  Rng rng(303);
  HomWorkload w;
  const int small_pairs = mode == Mode::kDryRun ? 4 : 16;
  const int medium_pairs = mode == Mode::kDryRun ? 2 : 6;
  for (int i = 0; i < small_pairs; ++i) {
    w.small.emplace_back(
        RandomConnectedStructure(schema, 2 + rng.Below(2), &rng, 2, 3),
        RandomStructure(schema, 3 + rng.Below(3), &rng, 2, 3));
  }
  for (int i = 0; i < medium_pairs; ++i) {
    w.medium.emplace_back(
        RandomConnectedStructure(schema, 4 + rng.Below(2), &rng, 3, 4),
        RandomStructure(schema, 8 + rng.Below(5), &rng, 2, 5));
  }
  return w;
}

double RunHomWorkload(const HomWorkload& w, const DpOptions& options) {
  for (const auto& [from, to] : w.small) CountHoms(from, to, options);
  for (const auto& [from, to] : w.medium) CountHoms(from, to, options);
  return 0.0;
}

Sweep SweepOrderSearch(Mode mode, const HomWorkload& w,
                       std::size_t* order_search_max_atoms) {
  const int reps = mode == Mode::kDryRun ? 1 : 3;
  std::vector<std::size_t> candidates =
      mode == Mode::kFull ? std::vector<std::size_t>{0, 8, 12, 16}
                          : std::vector<std::size_t>{0, 12};
  Sweep sweep;
  sweep.name = "order_search_max_atoms";
  sweep.columns = "max_atoms, workload_ms";
  double best_ms = std::numeric_limits<double>::infinity();
  for (std::size_t c : candidates) {
    DpOptions options;
    options.order_search_max_atoms = c;
    Point p;
    p.label = std::to_string(c);
    p.ms_a = TimeMs([&] { RunHomWorkload(w, options); }, reps);
    if (p.ms_a < best_ms) {
      best_ms = p.ms_a;
      *order_search_max_atoms = c;
    }
    sweep.points.push_back(std::move(p));
  }
  sweep.decision =
      "order_search_max_atoms=" + std::to_string(*order_search_max_atoms);
  return sweep;
}

Sweep SweepDomainMinWork(Mode mode, const HomWorkload& w,
                         std::uint64_t* domain_min_work) {
  const int reps = mode == Mode::kDryRun ? 1 : 3;
  const std::vector<std::uint64_t> candidates = {0, 1u << 10, 1u << 12,
                                                 1u << 14};
  Sweep sweep;
  sweep.name = "domain_min_work";
  sweep.columns = "min_work, workload_ms";
  double best_ms = std::numeric_limits<double>::infinity();
  for (std::uint64_t c : candidates) {
    DpOptions options;
    options.domain_min_work = static_cast<double>(c);
    Point p;
    p.label = std::to_string(c);
    p.ms_a = TimeMs([&] { RunHomWorkload(w, options); }, reps);
    if (p.ms_a < best_ms) {
      best_ms = p.ms_a;
      *domain_min_work = c;
    }
    sweep.points.push_back(std::move(p));
  }
  sweep.decision = "domain_min_work=" + std::to_string(*domain_min_work);
  return sweep;
}

/// Thread-pool width: wall time of a split hom count at every power-of-2
/// width up to the hardware, plus the hardware width itself.
Sweep SweepThreadWidth(Mode mode, unsigned hw_cpus, std::size_t* num_threads,
                       std::size_t* chunks_per_lane) {
  const int reps = mode == Mode::kDryRun ? 1 : 2;
  std::vector<std::size_t> widths;
  for (std::size_t w = 1; w < hw_cpus; w *= 2) widths.push_back(w);
  widths.push_back(hw_cpus);

  Rng rng(404);
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  const Structure from =
      RandomConnectedStructure(schema, 5, &rng, 3, 4);
  const Structure to = RandomStructure(schema, 12, &rng, 2, 5);

  Sweep sweep;
  sweep.name = "thread_width";
  sweep.columns = "width, hom_split_ms";
  double best_ms = std::numeric_limits<double>::infinity();
  std::size_t best_width = 1;
  for (std::size_t width : widths) {
    SetGlobalThreadPoolSize(width);
    Point p;
    p.label = std::to_string(width);
    p.ms_a = TimeMs(
        [&] {
          DpOptions options;
          options.num_threads = width;
          options.parallel_split_min_work = 0;
          CountHoms(from, to, options);
        },
        reps);
    if (p.ms_a < best_ms) {
      best_ms = p.ms_a;
      best_width = width;
    }
    sweep.points.push_back(std::move(p));
  }
  // Restore the default pool before anything else runs.
  SetGlobalThreadPoolSize(0);
  // Full hardware width is spelled "auto" so a profile moved between
  // machines of the same family keeps scaling.
  *num_threads = best_width == hw_cpus ? 0 : best_width;

  // Split chunking only matters with real lanes: sweep oversubscription at
  // the chosen width, else retain the default.
  *chunks_per_lane = TuningProfile{}.parallel_split_chunks_per_lane;
  if (hw_cpus > 1) {
    double best_chunk_ms = std::numeric_limits<double>::infinity();
    for (std::size_t c : {1u, 2u, 4u}) {
      DpOptions options;
      options.parallel_split_min_work = 0;
      options.parallel_split_chunks_per_lane = c;
      const double ms = TimeMs([&] { CountHoms(from, to, options); }, reps);
      Point p;
      p.label = "chunks=" + std::to_string(c);
      p.ms_a = ms;
      sweep.points.push_back(std::move(p));
      if (ms < best_chunk_ms) {
        best_chunk_ms = ms;
        *chunks_per_lane = c;
      }
    }
  }
  std::ostringstream decision;
  decision << "num_threads=" << *num_threads << " (best width " << best_width
           << " of " << hw_cpus << " hw), parallel_split_chunks_per_lane="
           << *chunks_per_lane;
  sweep.decision = decision.str();
  return sweep;
}

// --- Output ----------------------------------------------------------------

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
  out.flush();
  return out.good();
}

std::string BuildReportJson(const Fingerprint& fp, Mode mode,
                            const std::vector<Sweep>& sweeps,
                            const TuningProfile& chosen) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"tool\": \"bagdet_tune\",\n";
  out << "  \"mode\": \""
      << (mode == Mode::kDryRun ? "dry-run"
                                : (mode == Mode::kFull ? "full" : "default"))
      << "\",\n";
  char stamp[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc;
  if (gmtime_r(&now, &tm_utc) != nullptr) {
    std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  }
  out << "  \"timestamp\": \"" << stamp << "\",\n";
  out << "  \"fingerprint\": {\"slug\": \"" << JsonEscape(fp.Slug())
      << "\", \"host\": \"" << JsonEscape(fp.host) << "\", \"machine\": \""
      << JsonEscape(fp.machine) << "\", \"cpus\": " << fp.cpus
      << ", \"word_bits\": " << fp.word_bits << "},\n";
  out << "  \"sweeps\": [\n";
  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    const Sweep& sweep = sweeps[s];
    out << "    {\"name\": \"" << JsonEscape(sweep.name) << "\", \"columns\": \""
        << JsonEscape(sweep.columns) << "\", \"decision\": \""
        << JsonEscape(sweep.decision) << "\", \"points\": [";
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
      const Point& p = sweep.points[i];
      out << (i == 0 ? "" : ", ") << "{\"label\": \"" << JsonEscape(p.label)
          << "\", \"a_ms\": " << p.ms_a;
      if (p.ms_b >= 0) out << ", \"b_ms\": " << p.ms_b;
      out << "}";
    }
    out << "]}" << (s + 1 == sweeps.size() ? "" : ",") << "\n";
  }
  out << "  ],\n";
  out << "  \"profile\": {\n";
  std::istringstream profile_lines(SerializeTuningProfile(chosen));
  std::string line;
  std::vector<std::pair<std::string, std::string>> kv;
  while (std::getline(profile_lines, line)) {
    const std::size_t eq = line.find(" = ");
    if (eq != std::string::npos) {
      kv.emplace_back(line.substr(0, eq), line.substr(eq + 3));
    }
  }
  for (std::size_t i = 0; i < kv.size(); ++i) {
    out << "    \"" << kv[i].first << "\": " << kv[i].second
        << (i + 1 == kv.size() ? "" : ",") << "\n";
  }
  out << "  }\n";
  out << "}\n";
  return out.str();
}

int Run(int argc, char** argv) {
  Mode mode = Mode::kDefault;
  std::string out_path = "tuning_profile.txt";
  std::string report_path = "tuning_report.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "bagdet_tune: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--dry-run") {
      mode = Mode::kDryRun;
    } else if (arg == "--full") {
      mode = Mode::kFull;
    } else if (arg == "--out") {
      out_path = value("--out");
    } else if (arg == "--report") {
      report_path = value("--report");
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: bagdet_tune [--dry-run | --full] [--out <profile>]"
                   " [--report <json>]\n";
      return 0;
    } else {
      std::cerr << "bagdet_tune: unknown argument " << arg << "\n";
      return 2;
    }
  }

  const Fingerprint fp = MachineFingerprint();
  std::cerr << "bagdet_tune: calibrating on " << fp.Slug() << " ("
            << (mode == Mode::kDryRun
                    ? "dry-run"
                    : (mode == Mode::kFull ? "full" : "default"))
            << " sweep)\n";

  TuningProfile chosen;
  std::vector<Sweep> sweeps;
  const HomWorkload workload = MakeHomWorkload(mode);
  sweeps.push_back(
      SweepOrderSearch(mode, workload, &chosen.order_search_max_atoms));
  std::cerr << "  " << sweeps.back().decision << "\n";
  sweeps.push_back(SweepDomainMinWork(mode, workload, &chosen.domain_min_work));
  std::cerr << "  " << sweeps.back().decision << "\n";
  sweeps.push_back(SweepThreadWidth(mode, fp.cpus, &chosen.num_threads,
                                    &chosen.parallel_split_chunks_per_lane));
  std::cerr << "  " << sweeps.back().decision << "\n";

  if (std::optional<TuningError> error = ValidateTuningProfile(chosen)) {
    // A sweep can only produce this through a bug; refuse to emit garbage.
    std::cerr << "bagdet_tune: swept profile invalid: " << error->ToString()
              << "\n";
    return 1;
  }

  std::ostringstream profile_text;
  profile_text << "# bagdet tuning profile\n"
               << "# generated by bagdet_tune on " << fp.Slug() << " ("
               << fp.cpus << " cpus)\n"
               << "# load via BAGDET_TUNING_PROFILE=<this file>\n"
               << SerializeTuningProfile(chosen);
  if (!WriteFile(out_path, profile_text.str())) {
    std::cerr << "bagdet_tune: cannot write profile to " << out_path << "\n";
    return 1;
  }
  if (!WriteFile(report_path, BuildReportJson(fp, mode, sweeps, chosen))) {
    std::cerr << "bagdet_tune: cannot write report to " << report_path << "\n";
    return 1;
  }
  std::cerr << "bagdet_tune: wrote " << out_path << " and " << report_path
            << "\n";
  return 0;
}

}  // namespace
}  // namespace bagdet

int main(int argc, char** argv) { return bagdet::Run(argc, argv); }
