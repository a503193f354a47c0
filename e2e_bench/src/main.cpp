// bagdet_e2e: the end-to-end benchmark of the bagdet decision pipeline.
//
//   bagdet_e2e --workload decide|certify|serve --seed N --seconds S --trace 0|1
//              [--latency-limit-ms D] [--spans PATH] [--rate R (serve)]
//
// Workloads (e2e_bench/workloads.json records why each was chosen):
//   decide   closed loop, one client: parse an instance, then
//            DecideBagDeterminacy without a counterexample.
//   certify  closed loop, one client: parse, decide with certificates, and
//            use them (verify the counterexample, or answer q on a random
//            database from the view counts and compare with a direct count).
//   serve    open loop: Poisson arrivals at a fixed rate from one generator
//            thread into one long-lived DeterminacyService over a zipfian
//            key space of pre-built requests.
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the same ops
// stage by stage with spans (ops.h) and prints the per-layer metrics. The
// last stdout line is one JSON object {correct, attempted, failed, metrics};
// the lines before it carry the run fingerprint, the instance-set hash and,
// when traced, the linalg ledger histograms.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/determinacy.h"
#include "generator.h"
#include "ops.h"
#include "serve/service.h"
#include "spans.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

/// Set-ups per run, each cold in its own process; setup_s is their median.
constexpr int kSetupReps = 11;
/// A serve run is invalid when the generator's p99 lateness exceeds this:
/// its requests were then not offered at the schedule's rate.
constexpr double kLateBoundMs = 10;
/// Serve runner threads, at most nproc - 1 (the generator keeps one CPU).
/// 3 is nproc - 1 on the 4-vCPU host the offered rate was measured on.
constexpr std::size_t kMaxRunners = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double rate = 0;  // serve: offered requests per second.
  std::uint64_t latency_limit_ms = 1000;
  std::string spans_path;
};

double Ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// A single-threaded loop stays on one CPU, and on a shared VM one vCPU can
/// run 30% slower than another for minutes: a closed-loop run used to read
/// either 0.45 or 0.63 ms p50 by where it landed. So the closed loops
/// visit the allowed CPUs in turn (PinTo) and report medians over the
/// visits.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }

  /// Pins the calling thread to the `turn`-th allowed CPU, cyclically.
  /// Threads it starts afterwards inherit the pin.
  void PinTo(std::size_t turn) const {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[turn % cpus_.size()], &set);
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }

 private:
  std::vector<int> cpus_;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Linear-interpolated percentile, p in [0, 1].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The warm-up pass over lazy global state: the thread pool, the prime
/// table and the calling thread's limb arena. It decides a fixed instance
/// that is in no workload's set, so no per-op cache of the run is warmed.
void WarmUp() {
  Instance inst;
  inst.id = "warmup";
  inst.text =
      "v() :- E(a,a), E(b,c), E(c,b), E(b,b), E(d,e), E(e,f), E(f,d), "
      "E(d,d), E(g,h), E(h,i), E(i,j), E(j,g), E(g,g), E(g,g)\n"
      "q() :- E(a,a), E(b,c), E(c,b), E(d,e), E(e,f), E(f,d), E(g,h), "
      "E(h,i), E(i,j), E(j,g)\n";
  OpInput in;
  in.instance = &inst;
  in.want_counterexample = true;
  OpResult r = RunOp(in);
  if (r.result.has_value() && r.result->counterexample.has_value()) {
    bagdet::VerifyCounterexample(r.result->analysis, *r.result->counterexample);
  }
}

/// Times kSetupReps - 1 cold set-ups, each in a forked child that starts,
/// as the parent's own set-up will, with no lazy global state built, and
/// returns their seconds (empty when a child failed). Call it before the
/// process starts a thread.
template <typename Build>
std::vector<double> ForkedSetupSeconds(Build build) {
  std::vector<double> seconds;
  std::fflush(stdout);  // The children must not repeat buffered output.
  for (int rep = 0; rep + 1 < kSetupReps; ++rep) {
    int fds[2];
    if (pipe(fds) != 0) return {};
    const pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      const std::int64_t t0 = NowNs();
      auto kept = build();  // _exit skips its destructor: not timed.
      (void)kept;
      const double s = static_cast<double>(NowNs() - t0) / 1e9;
      _exit(write(fds[1], &s, sizeof s) == sizeof s ? 0 : 1);
    }
    close(fds[1]);
    double s = 0;
    const bool got = pid > 0 && read(fds[0], &s, sizeof s) == sizeof s;
    close(fds[0]);
    int status = 1;
    if (pid > 0) waitpid(pid, &status, 0);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return {};
    seconds.push_back(s);
  }
  return seconds;
}

// ---------------------------------------------------------------------------
// Metrics output.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Traced-run accumulation (per-layer metrics and the linalg ledger).

struct TraceAccum {
  std::uint64_t ops = 0;
  /// Traced over untraced wall time of each op, paired on the same input
  /// so the op mix cancels out.
  std::vector<double> overhead_ratio;
  TraceCounts counts;
  LinalgRow ledger_sum;
  std::uint64_t eval_ops = 0;
  std::map<std::string, std::uint64_t> span_shape, span_bits, eval_shape,
      eval_bits;
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  double cache_bytes = 0;
  std::uint64_t cache_ops = 0;
};

std::string BitsBucket(std::size_t bits) {
  std::size_t b = 1;
  while (b < bits) b <<= 1;
  return "<=" + std::to_string(b);
}

void AddLedger(TraceAccum& acc, const LinalgRow& row) {
  acc.ledger_sum.span_rows += row.span_rows;
  acc.ledger_sum.span_cols += row.span_cols;
  acc.ledger_sum.span_bits += row.span_bits;
  ++acc.span_shape[std::to_string(row.span_rows) + "x" +
                   std::to_string(row.span_cols)];
  ++acc.span_bits[BitsBucket(row.span_bits)];
  if (row.eval_dim != 0) {
    ++acc.eval_ops;
    acc.ledger_sum.eval_dim += row.eval_dim;
    acc.ledger_sum.eval_bits += row.eval_bits;
    ++acc.eval_shape[std::to_string(row.eval_dim) + "x" +
                     std::to_string(row.eval_dim)];
    ++acc.eval_bits[BitsBucket(row.eval_bits)];
  }
}

void PrintLedger(const std::string& workload, const TraceAccum& acc) {
  auto hist = [](const std::map<std::string, std::uint64_t>& h) {
    std::string s = "{";
    for (const auto& [key, count] : h) {
      if (s.size() > 1) s += ", ";
      s += "\"" + key + "\": " + std::to_string(count);
    }
    return s + "}";
  };
  std::printf("{\"linalg_ledger\": {\"workload\": \"%s\", \"ops\": %llu, "
              "\"span_shape\": %s, \"span_max_entry_bits\": %s, "
              "\"eval_shape\": %s, \"eval_max_entry_bits\": %s}}\n",
              workload.c_str(), static_cast<unsigned long long>(acc.ops),
              hist(acc.span_shape).c_str(), hist(acc.span_bits).c_str(),
              hist(acc.eval_shape).c_str(), hist(acc.eval_bits).c_str());
}

/// Serving-side numbers of a traced serve run (zero elsewhere).
struct ServeLayer {
  std::vector<double> queue_ms, exec_ms, late_ms;
  double cache_hit_ratio = 0, shed_frac = 0, declined_frac = 0,
         degraded_frac = 0, retries_per_req = 0, pool_classes = 0,
         pool_bytes = 0, offered_rps = 0;
};

std::vector<Metric> LayerMetrics(const SpanRecorder& rec,
                                 const TraceAccum& acc,
                                 const ServeLayer& serve) {
  const std::map<std::string, SpanTotals> totals = rec.Totals();
  const double ops = static_cast<double>(std::max<std::uint64_t>(acc.ops, 1));
  auto self_ms = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : Ms(it->second.self_ns) / ops;
  };
  auto total_ms = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : Ms(it->second.total_ns) / ops;
  };
  const TraceCounts& c = acc.counts;
  const double eval_ops = static_cast<double>(acc.eval_ops);
  const double cache_ops =
      static_cast<double>(std::max<std::uint64_t>(acc.cache_ops, 1));
  const double root_total = total_ms("op");
  const double overhead =
      acc.overhead_ratio.empty()
          ? 0.0
          : Percentile(acc.overhead_ratio, 0.5) - 1.0;
  return {
      {"query.parse.self_ms_per_op", self_ms("query.parse"), "ms"},
      {"hom.containment.ms_per_op", total_ms("hom.containment"), "ms"},
      {"hom.containment.calls_per_op",
       static_cast<double>(c.containment_calls) / ops, "count"},
      {"hom.containment.relevant_frac",
       Ratio(static_cast<double>(c.containment_relevant),
             static_cast<double>(c.containment_calls)),
       "frac"},
      {"structs.intern.ms_per_op", total_ms("structs.intern"), "ms"},
      {"structs.intern.components_per_op",
       static_cast<double>(c.components) / ops, "count"},
      {"structs.intern.classes_per_op", static_cast<double>(c.classes) / ops,
       "count"},
      {"core.analyze.self_ms_per_op", self_ms("core.analyze"), "ms"},
      {"linalg.span.ms_per_op", self_ms("linalg.span"), "ms"},
      {"linalg.span.rows", static_cast<double>(acc.ledger_sum.span_rows) / ops,
       "count"},
      {"linalg.span.cols", static_cast<double>(acc.ledger_sum.span_cols) / ops,
       "count"},
      {"linalg.span.max_entry_bits",
       static_cast<double>(acc.ledger_sum.span_bits) / ops, "bits"},
      {"linalg.eval.dim",
       Ratio(static_cast<double>(acc.ledger_sum.eval_dim), eval_ops), "count"},
      {"linalg.eval.max_entry_bits",
       Ratio(static_cast<double>(acc.ledger_sum.eval_bits), eval_ops), "bits"},
      {"linalg.eval_rank.ms_per_op", total_ms("linalg.eval_rank"), "ms"},
      {"linalg.cone.ms_per_op", total_ms("linalg.cone"), "ms"},
      {"linalg.orthogonal.ms_per_op", total_ms("linalg.orthogonal"), "ms"},
      {"core.basis.self_ms_per_op", self_ms("core.basis"), "ms"},
      {"core.distinguisher.ms_per_op", total_ms("core.distinguisher"), "ms"},
      {"core.distinguisher.pairs_per_op",
       static_cast<double>(c.distinguisher_pairs) / ops, "count"},
      {"core.synthesize.self_ms_per_op", self_ms("core.synthesize"), "ms"},
      {"core.verify.ms_per_op", self_ms("core.verify"), "ms"},
      {"core.answer.ms_per_op", self_ms("core.answer"), "ms"},
      {"hom.count.ms_per_op", self_ms("hom.count"), "ms"},
      {"hom.cache.hits_per_op", static_cast<double>(acc.cache_hits) / cache_ops,
       "count"},
      {"hom.cache.misses_per_op",
       static_cast<double>(acc.cache_misses) / cache_ops, "count"},
      {"hom.cache.hit_ratio",
       Ratio(static_cast<double>(acc.cache_hits),
             static_cast<double>(acc.cache_hits + acc.cache_misses)),
       "frac"},
      {"hom.cache.evictions_per_op",
       static_cast<double>(acc.cache_evictions) / cache_ops, "count"},
      {"hom.cache.bytes", acc.cache_bytes / cache_ops, "bytes"},
      {"util.bigint.heap_allocs_per_op",
       static_cast<double>(c.heap_allocs) / ops, "count"},
      {"serve.queue_ms_p50", Percentile(serve.queue_ms, 0.5), "ms"},
      {"serve.queue_ms_p99", Percentile(serve.queue_ms, 0.99), "ms"},
      {"serve.exec_ms_p50", Percentile(serve.exec_ms, 0.5), "ms"},
      {"serve.exec_ms_p99", Percentile(serve.exec_ms, 0.99), "ms"},
      {"serve.cache_hit_ratio", serve.cache_hit_ratio, "frac"},
      {"serve.shed_frac", serve.shed_frac, "frac"},
      {"serve.declined_frac", serve.declined_frac, "frac"},
      {"serve.degraded_frac", serve.degraded_frac, "frac"},
      {"serve.retries_per_req", serve.retries_per_req, "count"},
      {"serve.pool_classes", serve.pool_classes, "count"},
      {"serve.pool_bytes", serve.pool_bytes, "bytes"},
      {"loadgen.late_ms_p99", Percentile(serve.late_ms, 0.99), "ms"},
      {"loadgen.offered_rps", serve.offered_rps, "1/s"},
      {"trace.overhead_frac", overhead, "frac"},
      {"trace.unattributed_frac",
       Ratio(self_ms("op"), root_total), "frac"},
  };
}

/// One traced op plus its untraced twin, folded into `acc`. Returns the
/// failure (empty when the op passed and both runs agree).
std::string TracedPair(const OpInput& in, SpanRecorder& rec, TraceAccum& acc) {
  const auto op = static_cast<std::uint32_t>(acc.ops);
  OpResult untraced, traced;
  LinalgRow row;
  double untraced_ms = 0, traced_ms = 0;
  auto run_untraced = [&] {
    const std::int64_t t0 = NowNs();
    untraced = RunOp(in);
    untraced_ms = Ms(NowNs() - t0);
  };
  auto run_traced = [&] {
    const std::size_t root = rec.spans().size();
    traced = RunTracedOp(in, rec, op, &row, &acc.counts);
    if (root < rec.spans().size()) {
      const Span& s = rec.spans()[root];
      traced_ms = Ms(s.end_ns - s.start_ns);
    }
  };
  // Alternate which twin runs first: the second run of an instance finds
  // warm caches, which would otherwise bias the overhead.
  if (op % 2 == 0) {
    run_untraced();
    run_traced();
  } else {
    run_traced();
    run_untraced();
  }
  ++acc.ops;
  if (untraced_ms > 0) acc.overhead_ratio.push_back(traced_ms / untraced_ms);
  if (!untraced.failure.empty()) return untraced.failure;
  if (!traced.failure.empty()) return "traced: " + traced.failure;
  if (!SameResult(*untraced.result, *traced.result, in.want_counterexample)) {
    return "traced result differs from the untraced call";
  }
  AddLedger(acc, row);
  if (in.shared_cache == nullptr) {
    const bagdet::HomCache::Stats s = traced.result->analysis.hom_cache->stats();
    acc.cache_hits += s.hits;
    acc.cache_misses += s.misses;
    acc.cache_evictions += s.evictions;
    acc.cache_bytes += static_cast<double>(s.bytes);
    ++acc.cache_ops;
  }
  return "";
}

void ReportFailure(std::uint64_t& failed, const std::string& what,
                   const std::string& id) {
  if (failed++ < 5) std::fprintf(stderr, "FAILED %s: %s\n", id.c_str(), what.c_str());
}

/// A slice of the measured phase: a complete pass over the instance set
/// (closed loops) or one second of arrivals (serve).
struct Block {
  std::vector<double> latency_ms;
  std::uint64_t ok = 0;
  double wall_s = 0;  // Closed loops only.
  double cpu_s = 0;
};

/// The closed loops' throughput: completed, correct ops per second of the
/// block, from the quietest quarter of the blocks (see EndToEnd).
double ClosedThroughput(const std::vector<Block>& blocks) {
  std::vector<double> rate;
  for (const Block& b : blocks) {
    rate.push_back(static_cast<double>(b.ok) / b.wall_s);
  }
  return Percentile(rate, 0.75);
}

/// The end-to-end metrics. The op-latency percentiles and the CPU time are
/// taken per block, and each is reported from the quietest quarter of the
/// blocks: on a shared 4-vCPU VM the host slows a whole block by up to 40%
/// for a few hundred ms at a time, so the run's median block read whatever
/// share of the run was slowed, and moved 15-30% between runs. A change in
/// the program moves every block alike. The tail percentile is taken per
/// window of consecutive blocks holding at least 100 ops, so every window
/// keeps ten samples beyond its p90. It is p90, not p99: the serve p99
/// spread 11-16% from run to run, p90 7%.
std::vector<Metric> EndToEnd(const std::vector<Block>& blocks,
                             double throughput_ops_s, double setup_s) {
  std::vector<double> p50, cpu, p90, window;
  std::uint64_t ops = 0, ok = 0;
  std::size_t rest = 0;  // Ops in the blocks after the current one.
  for (const Block& b : blocks) rest += b.latency_ms.size();
  for (const Block& b : blocks) {
    p50.push_back(Percentile(b.latency_ms, 0.5));
    cpu.push_back(b.cpu_s * 1e3 /
                  static_cast<double>(std::max<std::size_t>(b.latency_ms.size(), 1)));
    window.insert(window.end(), b.latency_ms.begin(), b.latency_ms.end());
    ops += b.latency_ms.size();
    ok += b.ok;
    rest -= b.latency_ms.size();
    // A short tail window joins the last full one.
    if (window.size() >= 100 && rest >= 100) {
      p90.push_back(Percentile(window, 0.9));
      window.clear();
    }
  }
  if (!window.empty()) p90.push_back(Percentile(window, 0.9));
  return {{"latency_p50_ms", Percentile(p50, 0.25), "ms"},
          {"latency_p90_ms", Percentile(p90, 0.25), "ms"},
          {"throughput_ops_s", throughput_ops_s, "1/s"},
          {"cpu_ms_per_op", Percentile(cpu, 0.25), "ms"},
          {"ok_frac", Ratio(static_cast<double>(ok), static_cast<double>(ops)),
           "frac"},
          {"peak_rss_mb", PeakRssMb(), "MB"},
          {"setup_s", setup_s, "s"}};
}

// ---------------------------------------------------------------------------
// decide / certify: closed loop, one client.

struct ClosedSetup {
  std::vector<Instance> instances;
  std::vector<std::size_t> order;         // Seeded visiting order.
  std::vector<bagdet::Structure> dbs;     // certify: one per instance.
};

ClosedSetup BuildClosed(Mix mix, std::uint64_t seed) {
  ClosedSetup s;
  s.instances = GenerateInstances(mix, seed);
  if (mix == Mix::kCertify) s.dbs = Databases(s.instances, seed);
  SplitMix rng(seed ^ 0x2f6b3c1du);
  for (std::size_t i = 0; i < s.instances.size(); ++i) s.order.push_back(i);
  for (std::size_t i = s.order.size(); i > 1; --i) {
    std::swap(s.order[i - 1], s.order[rng.Below(i)]);
  }
  WarmUp();
  return s;
}

int RunClosed(const Args& args, Mix mix) {
  std::vector<double> setup_s =
      ForkedSetupSeconds([&] { return BuildClosed(mix, args.seed); });
  if (setup_s.empty()) {
    std::fprintf(stderr, "a set-up process failed\n");
    return 1;
  }
  // The last set-up is this process's own. It runs before any pin, so the
  // global thread pool it starts keeps every CPU.
  const std::int64_t setup_start = NowNs();
  const ClosedSetup setup = BuildClosed(mix, args.seed);
  setup_s.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);
  const CpuRotation rotation;
  std::printf("{\"instance_set\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"count\": %zu, \"hash\": \"%016llx\"}}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              setup.instances.size(),
              static_cast<unsigned long long>(
                  HashInstances(setup.instances, setup.dbs)));

  const bool certify = mix == Mix::kCertify;
  auto input = [&](std::size_t i) {
    OpInput in;
    in.instance = &setup.instances[i];
    in.want_counterexample = certify;
    in.db = certify ? &setup.dbs[i] : nullptr;
    return in;
  };

  std::uint64_t attempted = 0, failed = 0;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
  if (args.trace) {
    SpanRecorder rec;
    TraceAccum acc;
    for (std::size_t i = 0; NowNs() < deadline; ++i) {
      if (i % setup.order.size() == 0) rotation.PinTo(i / setup.order.size());
      const std::size_t idx = setup.order[i % setup.order.size()];
      ++attempted;
      std::string bad = TracedPair(input(idx), rec, acc);
      if (!bad.empty()) ReportFailure(failed, bad, setup.instances[idx].id);
    }
    PrintLedger(args.workload, acc);
    if (!args.spans_path.empty() && !rec.WriteJsonl(args.spans_path)) {
      std::fprintf(stderr, "cannot write %s\n", args.spans_path.c_str());
    }
    PrintResult(failed == 0, attempted, failed,
                LayerMetrics(rec, acc, ServeLayer()));
    return 0;
  }

  // One block per complete pass over the instance set, so every block has
  // the same op mix; the partial last pass is dropped. Each block runs on
  // the next CPU.
  std::vector<Block> blocks;
  Block block;
  rotation.PinTo(0);
  std::int64_t block_start = NowNs();
  double block_cpu = CpuSeconds();
  for (std::size_t i = 0; NowNs() < deadline; ++i) {
    if (i != 0 && i % setup.order.size() == 0) {
      block.wall_s = static_cast<double>(NowNs() - block_start) / 1e9;
      block.cpu_s = CpuSeconds() - block_cpu;
      blocks.push_back(std::move(block));
      block = Block();
      rotation.PinTo(blocks.size());
      block_start = NowNs();
      block_cpu = CpuSeconds();
    }
    const std::size_t idx = setup.order[i % setup.order.size()];
    const std::int64_t t0 = NowNs();
    OpResult r = RunOp(input(idx));
    const double ms = Ms(NowNs() - t0);
    block.latency_ms.push_back(ms);
    if (r.failure.empty() && ms > static_cast<double>(args.latency_limit_ms)) {
      r.failure = "latency limit exceeded";
    }
    ++attempted;
    if (r.failure.empty()) {
      ++block.ok;
    } else {
      ReportFailure(failed, r.failure, setup.instances[idx].id);
    }
  }
  if (blocks.empty()) {
    std::fprintf(stderr, "no complete pass over the instance set\n");
    return 1;
  }
  PrintResult(failed == 0 && attempted >= 1000, attempted, failed,
              EndToEnd(blocks, ClosedThroughput(blocks),
                       Percentile(setup_s, 0.5)));
  return 0;
}

// ---------------------------------------------------------------------------
// serve: open loop into one long-lived DeterminacyService.

struct ServeSetup {
  std::vector<Instance> keys;
  std::vector<Parsed> requests;                   // Pre-built, per key.
  std::vector<bagdet::DeterminacyResult> expected;  // Direct decisions.
  Arrivals arrivals;
  std::unique_ptr<bagdet::DeterminacyService> service;
  std::string failure;
};

ServeSetup BuildServe(const Args& args) {
  const std::size_t nproc =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());
  ServeSetup s;
  s.keys = GenerateInstances(Mix::kServe, args.seed);
  SplitMix rng(args.seed);
  for (const Instance& key : s.keys) {
    Parsed p = ParseInstance(key.text);
    // Requests arrive with their canonical forms computed, as a client
    // that keeps its parsed view catalogue would send them.
    for (const auto& v : p.views) v.FrozenBody().CanonicalData();
    p.query.FrozenBody().CanonicalData();
    bagdet::DeterminacyOptions options;
    options.want_counterexample = true;
    bagdet::DeterminacyResult direct =
        bagdet::DecideBagDeterminacy(p.views, p.query, options);
    if (direct.determined != key.determined) {
      s.failure = key.id + ": direct decision contradicts the ground truth";
    } else if (direct.determined) {
      const bagdet::Structure db =
          RandomDatabase(p.query.schema_ptr(), 12, rng);
      if (!bagdet::CheckWitnessOnStructure(direct.analysis, *direct.witness,
                                           db)) {
        s.failure = key.id + ": direct witness fails on a random database";
      }
    } else if (!direct.counterexample.has_value() ||
               bagdet::VerifyCounterexample(direct.analysis,
                                            *direct.counterexample)
                   .has_value()) {
      s.failure = key.id + ": direct counterexample missing or rejected";
    }
    s.requests.push_back(std::move(p));
    s.expected.push_back(std::move(direct));
  }
  s.arrivals =
      PoissonArrivals(s.keys.size(), args.rate, args.seconds, args.seed);
  bagdet::ServiceOptions options;
  options.max_concurrent = std::min(kMaxRunners, nproc - 1);
  s.service = std::make_unique<bagdet::DeterminacyService>(options);
  WarmUp();
  return s;
}

/// The distinct counterexamples each serving key's responses carried, kept
/// to be verified once each after the measured phase, so verification
/// takes no CPU from the service while it is measured. A decision against
/// the shared pool may return another (equally valid) counterexample than
/// the direct decision: the good basis depends on which isomorphic
/// representatives the pool already holds. Used from one thread.
class Certificates {
 public:
  explicit Certificates(std::size_t keys) : by_key_(keys) {}

  /// The index of `r`'s counterexample among the distinct ones recorded.
  std::size_t Record(std::size_t key, bagdet::DeterminacyResult&& r) {
    for (std::size_t i : by_key_[key]) {
      if (SameCounterexample(*results_[i].counterexample, *r.counterexample)) {
        return i;
      }
    }
    by_key_[key].push_back(results_.size());
    results_.push_back(std::move(r));
    return results_.size() - 1;
  }

  /// Whether each recorded counterexample passes VerifyCounterexample.
  std::vector<bool> VerifyAll() const {
    std::vector<bool> ok;
    for (const bagdet::DeterminacyResult& r : results_) {
      ok.push_back(
          !bagdet::VerifyCounterexample(r.analysis, *r.counterexample)
               .has_value());
    }
    return ok;
  }

 private:
  std::vector<std::vector<std::size_t>> by_key_;  // Indices into results_.
  std::vector<bagdet::DeterminacyResult> results_;
};

/// What the waiter thread records per request.
struct Completion {
  std::int64_t due_ns = 0, submit_ns = 0, done_ns = 0;
  double queue_ms = 0, exec_ms = 0;
  std::uint32_t retries = 0;
  bagdet::ServeOutcome outcome = bagdet::ServeOutcome::kDeclined;
  std::string failure;
  /// The Certificates index of the counterexample it carried, or -1.
  std::int64_t counterexample = -1;
};

int RunServe(const Args& args) {
  std::vector<double> setup_s =
      ForkedSetupSeconds([&] { return BuildServe(args); });
  if (setup_s.empty()) {
    std::fprintf(stderr, "a set-up process failed\n");
    return 1;
  }
  const std::int64_t setup_start = NowNs();
  ServeSetup setup = BuildServe(args);
  setup_s.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);
  std::printf("{\"instance_set\": {\"workload\": \"serve\", \"seed\": %llu, "
              "\"count\": %zu, \"hash\": \"%016llx\", \"requests\": %zu, "
              "\"arrivals_hash\": \"%016llx\"}}\n",
              static_cast<unsigned long long>(args.seed), setup.keys.size(),
              static_cast<unsigned long long>(HashInstances(setup.keys)),
              setup.arrivals.due_s.size(),
              static_cast<unsigned long long>(HashArrivals(setup.arrivals)));
  bool valid = setup.failure.empty();
  if (!valid) std::fprintf(stderr, "setup: %s\n", setup.failure.c_str());

  // The traced run spends the last quarter of its time replaying keys stage
  // by stage against the service's warm cache (see below).
  const std::size_t n_all = setup.arrivals.due_s.size();
  std::size_t n = n_all;
  if (args.trace) {
    n = static_cast<std::size_t>(
        std::lower_bound(setup.arrivals.due_s.begin(), setup.arrivals.due_s.end(),
                         0.75 * args.seconds) -
        setup.arrivals.due_s.begin());
  }

  // The generator on this thread and one waiter, which takes the finished
  // responses in submission order. A response's completion time is the
  // service's own (submit + queue_ms + exec_ms), so a request that finished
  // behind a slower older one is not stamped late.
  std::vector<Completion> done(n);
  Certificates certificates(setup.keys.size());
  std::deque<std::pair<std::size_t, std::future<bagdet::ServeResponse>>> pending;
  std::mutex mu;
  std::condition_variable cv;
  bool closed = false;
  std::thread waiter([&] {
    for (;;) {
      std::pair<std::size_t, std::future<bagdet::ServeResponse>> item;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return closed || !pending.empty(); });
        if (pending.empty()) return;
        item = std::move(pending.front());
        pending.pop_front();
      }
      bagdet::ServeResponse resp = item.second.get();
      Completion& c = done[item.first];
      c.done_ns = c.submit_ns +
                  static_cast<std::int64_t>((resp.queue_ms + resp.exec_ms) * 1e6);
      c.queue_ms = resp.queue_ms;
      c.exec_ms = resp.exec_ms;
      c.retries = resp.retries;
      c.outcome = resp.outcome;
      const std::size_t key = setup.arrivals.key[item.first];
      if (resp.outcome != bagdet::ServeOutcome::kAnswered) {
        c.failure = std::string("outcome ") +
                    bagdet::ServeOutcomeName(resp.outcome) + " " +
                    resp.status.ToString();
      } else if (!SameResult(setup.expected[key], *resp.result, false)) {
        c.failure = "verdict or witness differs from the direct decision";
      } else if (setup.arrivals.want_cx[item.first] && !resp.result->determined) {
        if (resp.result->counterexample.has_value()) {
          c.counterexample = static_cast<std::int64_t>(
              certificates.Record(key, std::move(*resp.result)));
        } else {
          c.failure = "counterexample missing";
        }
      }
    }
  });

  std::vector<bagdet::ServeRequest> prototypes;
  for (std::size_t k = 0; k < setup.keys.size(); ++k) {
    bagdet::ServeRequest req;
    req.views = setup.requests[k].views;
    req.query = setup.requests[k].query;
    req.limits.deadline_ms = args.latency_limit_ms;
    prototypes.push_back(std::move(req));
  }
  const bagdet::ServiceStats stats0 = setup.service->stats();
  // cpu_at[b]: process CPU time when the arrivals of second b began.
  std::vector<double> cpu_at = {CpuSeconds()};
  const std::int64_t start = NowNs() + 2'000'000;  // First arrival in 2 ms.
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t due =
        start + static_cast<std::int64_t>(setup.arrivals.due_s[i] * 1e9);
    std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
    while (static_cast<double>(cpu_at.size()) <= setup.arrivals.due_s[i]) {
      cpu_at.push_back(CpuSeconds());
    }
    Completion& c = done[i];
    c.due_ns = due;
    c.submit_ns = NowNs();
    bagdet::ServeRequest req = prototypes[setup.arrivals.key[i]];
    req.options.want_counterexample = setup.arrivals.want_cx[i];
    std::future<bagdet::ServeResponse> f = setup.service->Submit(std::move(req));
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.emplace_back(i, std::move(f));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_all();
  waiter.join();
  cpu_at.push_back(CpuSeconds());
  const bagdet::ServiceStats stats1 = setup.service->stats();

  // The measured phase is over: verify each distinct counterexample once.
  const std::vector<bool> verified = certificates.VerifyAll();
  for (Completion& c : done) {
    if (c.counterexample >= 0 &&
        !verified[static_cast<std::size_t>(c.counterexample)]) {
      c.failure = "counterexample rejected by VerifyCounterexample";
    }
  }

  // One block per second of arrivals; its CPU time runs from its first
  // arrival to the next block's (to the end of the drain for the last).
  std::vector<Block> blocks(cpu_at.size() - 1);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    blocks[b].cpu_s = cpu_at[b + 1] - cpu_at[b];
  }
  std::uint64_t failed = 0, ok = 0;
  std::int64_t last_done = n == 0 ? 0 : done[0].due_ns;
  std::vector<double> late_ms;
  ServeLayer layer;
  for (std::size_t i = 0; i < n; ++i) {
    const Completion& c = done[i];
    Block& block = blocks[static_cast<std::size_t>(setup.arrivals.due_s[i])];
    double ms = Ms(c.done_ns - c.due_ns);
    last_done = std::max(last_done, c.done_ns);
    if (c.failure.empty()) {
      ++block.ok;
      ++ok;
    } else {
      ReportFailure(failed, c.failure, setup.keys[setup.arrivals.key[i]].id);
      // A failed request counts as missing the latency limit.
      ms = std::max(ms, static_cast<double>(args.latency_limit_ms));
    }
    block.latency_ms.push_back(ms);
    late_ms.push_back(Ms(c.submit_ns - c.due_ns));
    layer.queue_ms.push_back(c.queue_ms);
    layer.exec_ms.push_back(c.exec_ms);
  }
  layer.late_ms = late_ms;
  const double late_p99 = Percentile(late_ms, 0.99);
  if (late_p99 > kLateBoundMs) {
    std::fprintf(stderr,
                 "invalid run: generator p99 lateness %.3f ms exceeds the "
                 "%.3f ms bound\n",
                 late_p99, kLateBoundMs);
    valid = false;
  }
  const double span_s = n == 0 ? args.seconds : setup.arrivals.due_s[n - 1];

  if (!args.trace) {
    // Correct completions over the time from the first arrival to the last
    // completion: at the fixed offered rate it reads the rate unless a
    // backlog builds, which stretches the drain and lowers it.
    const double throughput = Ratio(
        static_cast<double>(ok),
        n == 0 ? 0.0 : static_cast<double>(last_done - done[0].due_ns) / 1e9);
    PrintResult(valid && failed == 0 && n >= 1000, n, failed,
                EndToEnd(blocks, throughput, Percentile(setup_s, 0.5)));
    return 0;
  }

  // Traced run: request spans from the open loop, then the stage-by-stage
  // replay of the remaining arrivals' keys against the warm service cache.
  SpanRecorder rec;
  for (std::size_t i = 0; i < n; ++i) {
    const Completion& c = done[i];
    const std::int32_t root = static_cast<std::int32_t>(rec.spans().size());
    rec.Add("serve.request", c.due_ns, c.done_ns, -1,
            static_cast<std::uint32_t>(i));
    const std::int64_t dispatch =
        c.submit_ns + static_cast<std::int64_t>(c.queue_ms * 1e6);
    rec.Add("serve.queue", c.submit_ns, dispatch, root,
            static_cast<std::uint32_t>(i));
    rec.Add("serve.exec", dispatch,
            dispatch + static_cast<std::int64_t>(c.exec_ms * 1e6), root,
            static_cast<std::uint32_t>(i));
  }
  const double requests = static_cast<double>(stats1.submitted - stats0.submitted);
  const double lookups = static_cast<double>(
      (stats1.cache_hits - stats0.cache_hits) +
      (stats1.cache_misses - stats0.cache_misses));
  layer.cache_hit_ratio =
      Ratio(static_cast<double>(stats1.cache_hits - stats0.cache_hits), lookups);
  layer.shed_frac = Ratio(static_cast<double>(stats1.shed - stats0.shed), requests);
  layer.declined_frac =
      Ratio(static_cast<double>(stats1.declined - stats0.declined), requests);
  layer.degraded_frac =
      Ratio(static_cast<double>(stats1.degraded - stats0.degraded), requests);
  layer.retries_per_req =
      Ratio(static_cast<double>(stats1.retries - stats0.retries), requests);
  layer.pool_classes = static_cast<double>(stats1.pool_classes);
  layer.pool_bytes = static_cast<double>(stats1.pool_bytes);
  layer.offered_rps = Ratio(static_cast<double>(n), span_s);

  TraceAccum acc;
  acc.cache_hits = stats1.cache_hits - stats0.cache_hits;
  acc.cache_misses = stats1.cache_misses - stats0.cache_misses;
  acc.cache_evictions = stats1.cache_evictions - stats0.cache_evictions;
  acc.cache_ops = n;
  // hom.cache.bytes is a per-op mean elsewhere; the fleet-wide cache has
  // one resident size, reported as is.
  acc.cache_bytes = static_cast<double>(
      setup.service->generation_cache()->stats().bytes) * static_cast<double>(n);
  std::uint64_t attempted = n;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(0.25 * args.seconds * 1e9);
  const std::size_t tail = n_all - n;
  for (std::size_t i = 0; n_all != 0 && NowNs() < deadline; ++i) {
    const std::size_t a = tail != 0 ? n + i % tail : i % n_all;
    const std::size_t key = setup.arrivals.key[a];
    OpInput in;
    in.instance = &setup.keys[key];
    in.prebuilt = &setup.requests[key];
    in.want_counterexample = setup.arrivals.want_cx[a];
    in.shared_cache = setup.service->generation_cache();
    ++attempted;
    std::string bad = TracedPair(in, rec, acc);
    if (!bad.empty()) ReportFailure(failed, bad, setup.keys[key].id);
  }
  PrintLedger(args.workload, acc);
  if (!args.spans_path.empty() && !rec.WriteJsonl(args.spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", args.spans_path.c_str());
  }
  PrintResult(valid && failed == 0, attempted, failed,
              LayerMetrics(rec, acc, layer));
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") args->workload = value;
    else if (flag == "--seed") args->seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") args->seconds = std::atof(value);
    else if (flag == "--trace") args->trace = std::atoi(value) != 0;
    else if (flag == "--rate") args->rate = std::atof(value);
    else if (flag == "--latency-limit-ms")
      args->latency_limit_ms = std::strtoull(value, nullptr, 10);
    else if (flag == "--spans") args->spans_path = value;
    else return false;
  }
  return argc % 2 == 1 && args->seconds > 0 &&
         (args->workload == "decide" || args->workload == "certify" ||
          (args->workload == "serve" && args->rate > 0));
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bagdet_e2e --workload decide|certify|serve --seed N "
                 "--seconds S --trace 0|1 [--latency-limit-ms D] "
                 "[--spans PATH] [--rate R (serve)]\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "refusing to measure: NDEBUG is unset (not a Release "
                       "build)\n");
  return 2;
#endif
  for (const char* var : {"BAGDET_NUM_THREADS", "BAGDET_TUNING_PROFILE"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "refusing to measure: %s is set\n", var);
      return 2;
    }
  }
  std::printf("{\"fingerprint\": {\"nproc\": %u, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"ndebug\": true, "
              "\"BAGDET_NUM_THREADS\": \"unset\", "
              "\"BAGDET_TUNING_PROFILE\": \"unset\"}}\n",
              std::thread::hardware_concurrency(), __VERSION__, E2E_BUILD_TYPE);
  if (args.workload == "serve") return e2e::RunServe(args);
  return e2e::RunClosed(args, args.workload == "decide" ? e2e::Mix::kDecide
                                                        : e2e::Mix::kCertify);
}
