// End-to-end benchmark of pmjoin. One invocation runs one workload:
//
//   pmjoin_perfbench --workload <road_sc|dna_sc|serve_mixed> --seed <n>
//                    --seconds <s> --trace <0|1> --scratch <dir>
//                    [--spans <file>] [--tiny]
//
// --trace 0 sets up the workload several times (set-up time is the
// median), then runs its closed-loop query stream through JoinDriver or
// JoinServer for --seconds and reports the end-to-end metrics.
// --trace 1 runs the stream untraced for half the time, replays the same
// queries on fresh state through the individual layer calls with a span
// around each call, requires the replay to reproduce every query's pairs,
// IoStats and OpCounters exactly, and reports per-layer metrics.
//
// Every answer is checked (workloads.h, Verify). The last line of stdout
// is one JSON object; perfbench/run.py turns it into the reported result.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.h"
#include "geom/distance_kernels.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 9;
constexpr double kSetupBudgetS = 3.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool tiny = false;
  std::string scratch;
  std::string spans;
};

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "pmjoin_perfbench: %s\n", message.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) Fail("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Fail("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) Fail("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Fail("bad --trace " + value);
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (args.scratch.empty()) Fail("--scratch is required");
  return args;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Runs the stream from query 0 until `seconds` have passed and at least
/// one full cycle has completed.
std::vector<QueryOutcome> RunStream(Workload* workload, double seconds,
                                    double* elapsed_s) {
  std::vector<QueryOutcome> outcomes;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  while (outcomes.size() < workload->CycleLength() || NowNs() < deadline)
    outcomes.push_back(workload->Run(outcomes.size()));
  *elapsed_s = Seconds(NowNs() - start);
  return outcomes;
}

/// Marks wrong answers: reference checks, plus every repeat of a query
/// key must reproduce the first answer to it. Returns the first answer's
/// digest per key.
std::map<std::string, std::string> CheckAnswers(
    Workload* workload, const std::vector<QueryOutcome>& outcomes,
    std::vector<bool>* wrong, std::vector<std::string>* notes) {
  wrong->assign(outcomes.size(), false);
  workload->Verify(outcomes, wrong, notes);
  std::map<std::string, PairDigest> first;
  std::map<std::string, std::string> digests;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const QueryOutcome& q = outcomes[i];
    if (!q.ok) {
      (*wrong)[i] = true;
      notes->push_back("query " + std::to_string(i) + " failed: " + q.error);
      continue;
    }
    auto [it, inserted] = first.emplace(q.key, q.digest);
    if (inserted) digests[q.key] = q.digest.ToString();
    if (!(it->second == q.digest)) (*wrong)[i] = true;
  }
  return digests;
}

/// Per-layer metrics from the replay's spans and counts, plus the
/// server-side numbers of the untraced stream.
MetricList LayerMetrics(const Workload& workload, const SpanLog& log,
                        const std::vector<QueryOutcome>& untraced,
                        const std::vector<QueryOutcome>& replayed,
                        const std::vector<LayerCounts>& counts) {
  const std::vector<SpanRecord>& spans = log.spans();
  const std::vector<int64_t> self = log.SelfNs();
  // Inclusive ns per span name over stream queries; inclusive ns and count
  // per name over everything (builds are averaged per build, warm-ups and
  // set-up included).
  std::map<std::string, double> stream_ns, all_ns, all_count;
  double root_ns = 0, root_self_ns = 0;
  std::vector<double> traced_ms;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    const double ns = static_cast<double>(span.end_ns - span.start_ns);
    all_ns[span.name] += ns;
    all_count[span.name] += 1;
    if (span.query == kSetupQuery || counts[span.query].warmup) continue;
    stream_ns[span.name] += ns;
    if (span.parent < 0 && std::strcmp(span.name, "query") == 0) {
      root_ns += ns;
      root_self_ns += static_cast<double>(self[i]);
      traced_ms.push_back(ns / 1e6);
    }
  }
  const auto per_build_ms = [&](const char* name) {
    return Ratio(all_ns[name], all_count[name]) / 1e6;
  };

  double eps_n = 0, vec_n = 0, str_n = 0, knn_n = 0, all_n = 0;
  double marked = 0, selectivity = 0, clusters = 0, clustering_ops = 0;
  double build_mbr = 0, builds = 0;
  double pages = 0, seeks = 0, hits = 0, eps_pages = 0;
  double syscalls = 0, read_bytes = 0, checksums = 0;
  double vec_terms = 0, vec_pairs_examined = 0, vec_results = 0;
  double str_filter = 0, str_cells = 0, str_results = 0;
  double knn_candidates = 0, knn_pages = 0;
  double modeled_cpu = 0, modeled_io = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const LayerCounts& c = counts[i];
    const QueryOutcome& q = replayed[i];
    if (c.matrix_built) {
      build_mbr += static_cast<double>(c.build_mbr_tests);
      builds += 1;
    }
    if (c.warmup) continue;
    all_n += 1;
    pages += q.io.pages_read;
    seeks += q.io.seeks;
    hits += q.io.buffer_hits;
    syscalls += c.measured.read_syscalls;
    read_bytes += c.measured.read_bytes;
    checksums += c.measured.checksum_checks;
    modeled_cpu += c.modeled_join_cpu_s;
    if (c.knn) {
      knn_n += 1;
      knn_candidates += q.ops.filter_checks;
      knn_pages += q.io.pages_read;
    }
    if (!c.eps_query) continue;
    eps_n += 1;
    marked += c.marked_entries;
    selectivity += c.matrix_selectivity;
    clusters += c.clusters;
    clustering_ops += c.clustering_ops;
    eps_pages += q.io.pages_read;
    modeled_io += c.modeled_io_s;
    if (c.string_join) {
      str_n += 1;
      str_filter += q.ops.filter_checks;
      str_cells += q.ops.edit_cells;
      str_results += q.ops.result_pairs;
    } else {
      vec_n += 1;
      vec_terms += q.ops.distance_terms;
      vec_pairs_examined += Ratio(q.ops.distance_terms, c.dims);
      vec_results += q.ops.result_pairs;
    }
  }

  double submit_us = 0, queue_ms = 0, exec_ms = 0;
  double eps_rows = 0, eps_hits = 0, knn_rows = 0, knn_hits = 0;
  std::vector<double> untraced_ms;
  for (const QueryOutcome& q : untraced) {
    untraced_ms.push_back(q.wall_ms);
    submit_us += q.submit_us;
    queue_ms += q.queue_ms;
    exec_ms += q.exec_ms;
    (q.knn ? knn_rows : eps_rows) += 1;
    if (q.cache_hit) (q.knn ? knn_hits : eps_hits) += 1;
  }
  const double rows = static_cast<double>(untraced.size());
  const bool served = submit_us > 0;
  const double join_ns =
      stream_ns["geom.join"] + stream_ns["seq.join"] + stream_ns["core.knn_join"];
  const double untraced_p50 = Quantile(untraced_ms, 0.5);

  MetricList m;
  m.Add("data.build_ms", per_build_ms("data.build"), "ms");
  m.Add("io.persist_ms", per_build_ms("io.persist"), "ms");
  m.Add("io.write_mb", workload.setup_write_mb(), "MB");
  m.Add("core.matrix_ms", per_build_ms("core.matrix"), "ms");
  m.Add("core.mbr_tests", Ratio(build_mbr, builds), "count");
  m.Add("core.marked_entries", Ratio(marked, eps_n), "count");
  m.Add("core.matrix_selectivity", Ratio(selectivity, eps_n), "ratio");
  m.Add("core.clustering_ms", Ratio(stream_ns["core.clustering"], eps_n) / 1e6, "ms");
  m.Add("core.clusters", Ratio(clusters, eps_n), "count");
  m.Add("core.cluster_ops", Ratio(clustering_ops, eps_n), "count");
  m.Add("core.schedule_ms", Ratio(stream_ns["core.schedule"], eps_n) / 1e6, "ms");
  m.Add("core.execute_self_ms",
        Ratio(stream_ns["core.execute"] - stream_ns["io.pin"] -
                  stream_ns["geom.join"] - stream_ns["seq.join"],
              eps_n) / 1e6,
        "ms");
  m.Add("io.pin_ms", Ratio(stream_ns["io.pin"], eps_n) / 1e6, "ms");
  m.Add("io.pages_read", Ratio(pages, all_n), "count");
  m.Add("io.seeks", Ratio(seeks, all_n), "count");
  m.Add("io.buffer_hits", Ratio(hits, all_n), "count");
  m.Add("io.hit_ratio", Ratio(hits, hits + pages), "ratio");
  m.Add("io.us_per_page", Ratio(stream_ns["io.pin"], eps_pages) / 1e3, "us");
  m.Add("io.read_syscalls", Ratio(syscalls, all_n), "count");
  m.Add("io.read_mb", Ratio(read_bytes, all_n) / 1e6, "MB");
  m.Add("io.checksum_checks", Ratio(checksums, all_n), "count");
  m.Add("geom.join_ms", Ratio(stream_ns["geom.join"], vec_n) / 1e6, "ms");
  m.Add("geom.dist_terms", Ratio(vec_terms, vec_n), "count");
  m.Add("geom.ns_per_term", Ratio(stream_ns["geom.join"], vec_terms), "ns");
  m.Add("geom.useful_ratio", Ratio(vec_results, vec_pairs_examined), "ratio");
  m.Add("seq.join_ms", Ratio(stream_ns["seq.join"], str_n) / 1e6, "ms");
  m.Add("seq.filter_checks", Ratio(str_filter, str_n), "count");
  m.Add("seq.edit_cells", Ratio(str_cells, str_n), "count");
  m.Add("seq.ns_per_step",
        Ratio(stream_ns["seq.join"], str_filter + str_cells), "ns");
  m.Add("seq.useful_ratio", Ratio(str_results, str_filter), "ratio");
  m.Add("core.knn_matrix_ms", per_build_ms("core.knn_matrix"), "ms");
  m.Add("core.knn_join_ms", Ratio(stream_ns["core.knn_join"], knn_n) / 1e6, "ms");
  m.Add("core.knn_candidates", Ratio(knn_candidates, knn_n), "count");
  m.Add("core.knn_pages_read", Ratio(knn_pages, knn_n), "count");
  m.Add("server.submit_us", served ? submit_us / rows : 0.0, "us");
  m.Add("server.queue_ms", served ? queue_ms / rows : 0.0, "ms");
  m.Add("server.exec_ms", served ? exec_ms / rows : 0.0, "ms");
  m.Add("server.cache_ms", Ratio(stream_ns["server.cache"], all_n) / 1e6, "ms");
  m.Add("server.matrix_hit_ratio", served ? Ratio(eps_hits, eps_rows) : 0.0, "ratio");
  m.Add("server.knn_hit_ratio", served ? Ratio(knn_hits, knn_rows) : 0.0, "ratio");
  m.Add("model.cpu_gap", Ratio(join_ns / 1e9, modeled_cpu), "ratio");
  m.Add("model.io_gap", Ratio(stream_ns["io.pin"] / 1e9, modeled_io), "ratio");
  m.Add("obs.overhead_frac",
        Ratio(Quantile(traced_ms, 0.5) - untraced_p50, untraced_p50), "ratio");
  m.Add("trace.unaccounted_frac", Ratio(root_self_ns, root_ns), "ratio");
  return m;
}

void PrintResult(const Args& args, const Workload& workload, bool correct,
                 size_t attempted, size_t failed, const MetricList& metrics,
                 const std::map<std::string, std::string>& digests,
                 const std::vector<std::string>& notes,
                 const std::map<std::string, double>& samples) {
  std::string out = "{\"workload\":" + JsonString(args.workload) +
                    ",\"seed\":" + std::to_string(args.seed) +
                    ",\"trace\":" + std::to_string(args.trace);
  out += ",\"context\":{\"simd\":";
  out += pmjoin::kernels::HasExplicitSimd() ? "1" : "0";
  out += ",\"compiler\":" + JsonString(__VERSION__) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"backend\":" + JsonString(workload.backend()) +
         ",\"seed\":" + std::to_string(args.seed) + "}";
  out += std::string(",\"correct\":") + (correct ? "true" : "false") +
         ",\"attempted\":" + std::to_string(attempted) +
         ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  bool first = true;
  for (const Metric& metric : metrics.metrics()) {
    out += (first ? "" : ",") + JsonString(metric.name) +
           ":{\"value\":" + JsonNumber(metric.value) +
           ",\"unit\":" + JsonString(metric.unit) + "}";
    first = false;
  }
  out += "},\"samples\":{";
  first = true;
  for (const auto& [name, value] : samples) {
    out += (first ? "" : ",") + JsonString(name) + ":" + JsonNumber(value);
    first = false;
  }
  out += "},\"digests\":{";
  first = true;
  for (const auto& [key, digest] : digests) {
    out += (first ? "" : ",") + JsonString(key) + ":" + JsonString(digest);
    first = false;
  }
  out += "},\"notes\":[";
  for (size_t i = 0; i < notes.size(); ++i)
    out += (i ? "," : "") + JsonString(notes[i]);
  out += "]}";
  std::printf("%s\n", out.c_str());
}

int RunUntraced(const Args& args, Workload* workload) {
  // Set-up is repeated and its median reported: at least kMinSetups times,
  // more while they fit in kSetupBudgetS, so quick set-ups get more
  // samples.
  std::vector<double> setup_s;
  double setup_total_s = 0;
  while (setup_s.size() < kMinSetups ||
         (setup_s.size() < kMaxSetups && setup_total_s < kSetupBudgetS)) {
    if (!setup_s.empty()) workload->Teardown();
    const int64_t start = NowNs();
    const pmjoin::Status st = workload->Setup();
    setup_s.push_back(Seconds(NowNs() - start));
    setup_total_s += setup_s.back();
    if (!st.ok()) Fail("set-up failed: " + st.message());
  }
  double elapsed_s = 0;
  const std::vector<QueryOutcome> outcomes =
      RunStream(workload, args.seconds, &elapsed_s);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::vector<bool> wrong;
  std::vector<std::string> notes;
  const std::map<std::string, std::string> digests =
      CheckAnswers(workload, outcomes, &wrong, &notes);
  workload->Teardown();
  const size_t failed = std::count(wrong.begin(), wrong.end(), true);

  std::vector<double> wall_ms, modeled_s, pages;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    wall_ms.push_back(outcomes[i].wall_ms);
    // The modeled figures are deterministic per seed: averaged over the
    // first cycle of the stream, which every run completes.
    if (i < workload->CycleLength()) {
      modeled_s.push_back(outcomes[i].modeled_s);
      pages.push_back(static_cast<double>(outcomes[i].io.pages_read));
    }
  }
  MetricList metrics;
  metrics.Add("query_ms_p50", Quantile(wall_ms, 0.5), "ms");
  metrics.Add("query_ms_p90", Quantile(wall_ms, 0.9), "ms");
  metrics.Add("queries_per_s", static_cast<double>(outcomes.size()) / elapsed_s,
              "1/s");
  metrics.Add("setup_s", Quantile(setup_s, 0.5), "s");
  metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
  metrics.Add("modeled_s", Mean(modeled_s), "s");
  metrics.Add("pages_read", Mean(pages), "pages");
  metrics.Add("fail_ratio",
              static_cast<double>(failed) / static_cast<double>(outcomes.size()),
              "fraction");
  std::map<std::string, double> samples = {
      {"queries", static_cast<double>(outcomes.size())},
      {"samples_beyond_p90", static_cast<double>(outcomes.size()) * 0.1},
      {"setup_repeats", static_cast<double>(setup_s.size())},
      {"stream_s", elapsed_s}};
  // Median wall time per query kind (ε-jobs on a fresh ε are one kind).
  std::map<std::string, std::vector<double>> by_kind;
  for (const QueryOutcome& q : outcomes) {
    const size_t eps = q.key.find("eps=");
    const bool fresh =
        digests.size() > 8 && eps != std::string::npos && !q.cache_hit;
    by_kind["ms:" + (fresh ? q.key.substr(0, eps) + "eps=fresh" : q.key)]
        .push_back(q.wall_ms);
  }
  for (const auto& [kind, ms] : by_kind) samples[kind] = Quantile(ms, 0.5);
  PrintResult(args, *workload, failed == 0, outcomes.size(), failed, metrics,
              digests, notes, samples);
  return failed == 0 ? 0 : 1;
}

int RunTraced(const Args& args, Workload* workload) {
  const pmjoin::Status st = workload->Setup();
  if (!st.ok()) Fail("set-up failed: " + st.message());
  double elapsed_s = 0;
  const std::vector<QueryOutcome> untraced =
      RunStream(workload, args.seconds / 2, &elapsed_s);
  std::vector<bool> wrong;
  std::vector<std::string> notes;
  const std::map<std::string, std::string> digests =
      CheckAnswers(workload, untraced, &wrong, &notes);
  workload->Teardown();

  SpanLog log;
  std::vector<QueryOutcome> replayed;
  std::vector<LayerCounts> counts;
  const pmjoin::Status replay_st =
      workload->Replay(untraced.size(), &log, &replayed, &counts);
  if (!replay_st.ok()) Fail("replay failed: " + replay_st.message());
  const size_t warmups = replayed.size() - untraced.size();
  size_t mismatched = 0;
  for (size_t i = 0; i < untraced.size(); ++i) {
    const QueryOutcome& a = untraced[i];
    const QueryOutcome& b = replayed[warmups + i];
    if (!b.ok || a.key != b.key || !(a.digest == b.digest) ||
        !(a.io == b.io) || !(a.ops == b.ops)) {
      if (!wrong[i])
        notes.push_back("replay of query " + std::to_string(i) + " (" + a.key +
                        ") differs: io " + a.io.ToString() + " vs " +
                        b.io.ToString() + ", ops " + a.ops.ToString() +
                        " vs " + b.ops.ToString());
      wrong[i] = true;
      ++mismatched;
    }
  }
  if (!args.spans.empty() && !log.WriteJsonLines(args.spans))
    Fail("cannot write spans to " + args.spans);
  const size_t failed = std::count(wrong.begin(), wrong.end(), true);
  const MetricList metrics =
      LayerMetrics(*workload, log, untraced, replayed, counts);
  PrintResult(args, *workload, failed == 0, untraced.size(), failed, metrics,
              digests, notes,
              {{"queries", static_cast<double>(untraced.size())},
               {"replay_mismatches", static_cast<double>(mismatched)},
               {"spans", static_cast<double>(log.spans().size())}});
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  WorkloadConfig config;
  config.seed = args.seed;
  config.tiny = args.tiny;
  config.scratch_dir = args.scratch;
  std::unique_ptr<Workload> workload;
  if (args.workload == "road_sc")
    workload = MakeRoadWorkload(config);
  else if (args.workload == "dna_sc")
    workload = MakeDnaWorkload(config);
  else if (args.workload == "serve_mixed")
    workload = MakeServeWorkload(config);
  else
    Fail("unknown --workload '" + args.workload + "'");
  const pmjoin::Status st = workload->Prepare();
  if (!st.ok()) Fail("input generation failed: " + st.message());
  return args.trace ? RunTraced(args, workload.get())
                    : RunUntraced(args, workload.get());
}
