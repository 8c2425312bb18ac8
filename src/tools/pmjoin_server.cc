// pmjoin_server — long-lived join server: reads newline-delimited JSON
// submit lines from a job file (or stdin), runs them through the
// admission controller, bounded query queue, shared buffer pool, and
// artifact cache, and writes the aggregate pmjoin.server_report.v1 JSON.
// Serves both ε-joins ("eps" key) and kNN joins ("k" key).
//
// Usage:
//   pmjoin_server [--jobs=FILE|-] [--backend=sim|file] [--data-dir=DIR]
//                 [--pool=PAGES] [--buffer=PAGES] [--queue=N]
//                 [--threads=N] [--page=BYTES]
//                 [--norm=l1|l2|linf] [--seed=S]
//                 [--report=FILE] [--query-reports=DIR] [--persist]
//                 [--no-backpressure]
//
// Job lines (see docs/SERVER.md for the full grammar):
//   {"cmd": "submit", "r": "road/2000/7", "s": "road/2000/8",
//    "eps": 0.01, "engine": "sc"}
//   {"cmd": "submit", "r": "road/2000/7", "s": "road/2000/8", "k": 8}
//
// --jobs selects the job file; `-` (the default) reads stdin, so the
// server can be driven interactively or from a pipe. --backend and
// --data-dir mirror pmjoin_cli: `sim` models I/O only, `file` keeps real
// checksummed page files in DIR and lets --persist'ed datasets survive
// into the next server process. --pool sizes the shared buffer pool;
// --buffer is the per-query default budget B (jobs may override, capped
// at --pool by admission). --queue bounds the query queue: under the
// default backpressure regime a full queue blocks the submitter, with
// --no-backpressure it rejects the job instead. --threads sets the
// per-query worker-thread default (jobs may override via the "threads"
// key, capped by admission). --report writes the aggregate server
// report; --query-reports writes each query's pmjoin.run_report.v1 to
// DIR/<id>.json.
//
// Example (two jobs over one pipe; the second reuses the cached
// datasets and shared pool residency of the first):
//   { echo '{"r": "road/2000/1", "s": "road/2000/2", "eps": 0.01}';
//     echo '{"r": "road/2000/1", "s": "road/2000/2", "eps": 0.02}';
//   } | pmjoin_server --pool=128 --report=server.json

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "io/file_backend.h"
#include "io/simulated_disk.h"
#include "io/storage_backend.h"
#include "server/job.h"
#include "server/server.h"
#include "server/server_report.h"
#include "tools/flags.h"

namespace {

using namespace pmjoin;

struct CliArgs {
  std::string jobs = "-";
  std::string backend = "sim";
  std::string data_dir = "pmjoin-data";
  uint32_t pool = 256;
  uint32_t buffer = 64;
  uint32_t queue = 64;
  uint32_t threads = 1;
  uint32_t page = 1024;
  std::string norm = "l2";
  uint64_t seed = 1;
  std::string report;
  std::string query_reports;
  bool persist = false;
  bool no_backpressure = false;
};

std::optional<CliArgs> Parse(int argc, char** argv) {
  CliArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--jobs", &value)) {
      args.jobs = value;
    } else if (ParseFlag(argv[i], "--backend", &value)) {
      args.backend = value;
    } else if (ParseFlag(argv[i], "--data-dir", &value)) {
      args.data_dir = value;
    } else if (ParseFlag(argv[i], "--pool", &value)) {
      if (!ParseCount(argv[i], value, &args.pool)) return std::nullopt;
    } else if (ParseFlag(argv[i], "--buffer", &value)) {
      if (!ParseCount(argv[i], value, &args.buffer)) return std::nullopt;
    } else if (ParseFlag(argv[i], "--queue", &value)) {
      if (!ParseCount(argv[i], value, &args.queue)) return std::nullopt;
    } else if (ParseFlag(argv[i], "--threads", &value)) {
      if (!ParseCount(argv[i], value, &args.threads)) return std::nullopt;
    } else if (ParseFlag(argv[i], "--page", &value)) {
      if (!ParseCount(argv[i], value, &args.page)) return std::nullopt;
    } else if (ParseFlag(argv[i], "--norm", &value)) {
      args.norm = value;
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      if (!ParseCount(argv[i], value, &args.seed)) return std::nullopt;
    } else if (ParseFlag(argv[i], "--report", &value)) {
      args.report = value;
    } else if (ParseFlag(argv[i], "--query-reports", &value)) {
      args.query_reports = value;
    } else if (std::strcmp(argv[i], "--persist") == 0) {
      args.persist = true;
    } else if (std::strcmp(argv[i], "--no-backpressure") == 0) {
      args.no_backpressure = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      return std::nullopt;
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", argv[i]);
      return std::nullopt;
    }
  }
  return args;
}

std::optional<Norm> NormOf(const std::string& name) {
  if (name == "l1") return Norm::kL1;
  if (name == "l2") return Norm::kL2;
  if (name == "linf") return Norm::kLInf;
  return std::nullopt;
}

int Run(const CliArgs& args) {
  const auto norm = NormOf(args.norm);
  if (!norm) {
    std::fprintf(stderr, "bad --norm value: %s\n", args.norm.c_str());
    return 2;
  }
  if (args.pool == 0 || args.buffer == 0 || args.buffer > args.pool) {
    std::fprintf(stderr,
                 "need 0 < --buffer (%u) <= --pool (%u)\n", args.buffer,
                 args.pool);
    return 2;
  }

  // Job lines are read up front: the whole stream is known before the
  // server starts, which keeps the demo single-process. (The submission
  // API itself is thread-safe; tests/server exercises concurrent
  // submitters.)
  std::vector<server::JobSpec> jobs;
  if (args.jobs == "-") {
    auto parsed = server::ParseJobStream(std::cin);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--jobs stdin: %s\n",
                   parsed.status().message().c_str());
      return 1;
    }
    jobs = std::move(parsed).value();
  } else {
    std::ifstream in(args.jobs);
    if (!in) {
      std::fprintf(stderr, "cannot open --jobs file: %s\n",
                   args.jobs.c_str());
      return 1;
    }
    auto parsed = server::ParseJobStream(in);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: %s\n", args.jobs.c_str(),
                   parsed.status().message().c_str());
      return 1;
    }
    jobs = std::move(parsed).value();
  }

  std::unique_ptr<StorageBackend> backend;
  if (args.backend == "sim") {
    backend = std::make_unique<SimulatedDisk>();
  } else if (args.backend == "file") {
    FileBackend::Options fb;
    fb.page_size_bytes = args.page;
    auto opened = FileBackend::Open(args.data_dir, fb);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    backend = std::move(opened).value();
  } else {
    std::fprintf(stderr, "bad --backend value: %s\n", args.backend.c_str());
    return 2;
  }

  server::JoinServer::Options options;
  options.pool_pages = args.pool;
  options.default_buffer_pages = args.buffer;
  options.default_threads = args.threads;
  options.max_queue_depth = args.queue;
  options.page_size_bytes = args.page;
  options.norm = *norm;
  options.seed = args.seed;
  options.persist_datasets = args.persist;
  options.query_report_dir = args.query_reports;

  server::JoinServer join_server(backend.get(), options);
  Status st = join_server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  for (const server::JobSpec& job : jobs) {
    const auto submitted = args.no_backpressure
                               ? join_server.Submit(job)
                               : join_server.SubmitBlocking(job);
    if (!submitted.ok())
      std::fprintf(stderr, "rejected %s: %s\n", job.id.c_str(),
                   submitted.status().message().c_str());
  }
  join_server.WaitAll();
  join_server.Shutdown();

  server::ServerReport report = join_server.BuildReport();
  report.SetContext("backend", args.backend);

  uint64_t ok = 0, failed = 0, rejected = 0;
  for (const server::QueryRow& row : report.queries()) {
    if (row.status == "ok") {
      ++ok;
      char predicate[32];
      if (row.k > 0)
        std::snprintf(predicate, sizeof(predicate), "k=%u", row.k);
      else
        std::snprintf(predicate, sizeof(predicate), "eps=%g", row.eps);
      std::printf("%-8s %-8s %s ⋈ %s %s pairs=%llu io.read=%llu "
                  "hits=%llu%s\n",
                  row.id.c_str(), row.engine.c_str(), row.r.c_str(),
                  row.s.c_str(), predicate,
                  (unsigned long long)row.result_pairs,
                  (unsigned long long)row.io.pages_read,
                  (unsigned long long)row.io.buffer_hits,
                  row.matrix_cache_hit ? " [matrix cached]" : "");
    } else {
      row.status == "failed" ? ++failed : ++rejected;
      std::printf("%-8s %s: %s\n", row.id.c_str(), row.status.c_str(),
                  row.error.c_str());
    }
  }
  std::printf("served %llu ok, %llu failed, %llu rejected\n",
              (unsigned long long)ok, (unsigned long long)failed,
              (unsigned long long)rejected);

  if (!args.report.empty()) {
    st = report.WriteFile(args.report);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("report: %s (%zu queries)\n", args.report.c_str(),
                report.queries().size());
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = Parse(argc, argv);
  if (!args) {
    std::printf(
        "usage: pmjoin_server [--jobs=FILE|-] [--backend=sim|file]\n"
        "                     [--data-dir=DIR] [--pool=PAGES]\n"
        "                     [--buffer=PAGES] [--queue=N] [--threads=N]\n"
        "                     [--page=BYTES] [--norm=l1|l2|linf]\n"
        "                     [--seed=S] [--report=FILE]\n"
        "                     [--query-reports=DIR] [--persist]\n"
        "                     [--no-backpressure]\n"
        "Reads newline-delimited JSON submit lines from --jobs (default\n"
        "stdin), serves them over one shared buffer pool and artifact\n"
        "cache, and prints one line per query. --report writes the\n"
        "aggregate pmjoin.server_report.v1 JSON; --query-reports writes\n"
        "each query's pmjoin.run_report.v1 to DIR/<id>.json. --persist\n"
        "keeps built datasets on the backend (with --backend=file they\n"
        "survive into the next server process). See docs/SERVER.md.\n");
    return 2;
  }
  return Run(*args);
}
