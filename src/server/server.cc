#include "server/server.h"

#include <cstdio>
#include <utility>

#include "common/pair_sink.h"
#include "obs/clock.h"
#include "obs/run_report.h"
#include "obs/span.h"

namespace pmjoin {
namespace server {

JoinServer::JoinServer(StorageBackend* disk, Options options)
    : disk_(disk),
      options_(options),
      admission_(AdmissionController::Options{
          options.pool_pages, options.default_buffer_pages,
          options.default_threads, options.max_threads}),
      queue_(options.max_queue_depth),
      cache_(disk, ArtifactCache::Options{
                       options.page_size_bytes, options.persist_datasets,
                       options.hierarchical_matrix,
                       options.filter_iterations}),
      pool_(disk, options.pool_pages),
      driver_(disk) {}

JoinServer::~JoinServer() { Shutdown(); }

Status JoinServer::Start() {
  {
    MutexLock lock(&mu_);
    if (started_) return Status::Internal("Start called twice");
    started_ = true;
    server_start_io_ = disk_->stats();
  }
  worker_ = std::thread(&JoinServer::WorkerLoop, this);
  return Status::OK();
}

uint64_t JoinServer::Register(JobSpec* job) {
  MutexLock lock(&mu_);
  const uint64_t index = results_.size();
  if (job->id.empty()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "q%llu",
                  static_cast<unsigned long long>(index));
    job->id = buf;
  }
  results_.push_back(std::make_unique<QueryResult>());
  ++admission_stats_.submitted;
  return index;
}

Result<uint64_t> JoinServer::Submit(const JobSpec& job) {
  return Enqueue(job, /*blocking=*/false);
}

Result<uint64_t> JoinServer::SubmitBlocking(const JobSpec& job) {
  return Enqueue(job, /*blocking=*/true);
}

Result<uint64_t> JoinServer::Enqueue(const JobSpec& job_in, bool blocking) {
  JobSpec job = job_in;
  const uint64_t index = Register(&job);
  Status st = admission_.Admit(&job);
  if (st.ok()) {
    QueuedQuery queued{index, job, obs::MonotonicNanos()};
    st = blocking ? queue_.PushBlocking(std::move(queued))
                  : queue_.TryPush(std::move(queued));
  }
  if (!st.ok()) {
    QueryResult rejected;
    rejected.row.id = job.id;
    rejected.row.engine = EngineToken(job.k > 0 ? Algorithm::kKnn
                                                : job.engine);
    rejected.row.r = job.r;
    rejected.row.s = job.s;
    rejected.row.eps = job.eps;
    rejected.row.k = job.k;
    rejected.row.status = "rejected";
    rejected.row.error = st.message();
    {
      MutexLock lock(&mu_);
      ++admission_stats_.rejected;
    }
    Finish(index, std::move(rejected));
    return st;
  }
  {
    MutexLock lock(&mu_);
    ++admission_stats_.admitted;
  }
  return index;
}

const JoinServer::QueryResult& JoinServer::Wait(uint64_t index) {
  MutexLock lock(&mu_);
  while (index >= results_.size() || !results_[index]->done)
    done_cv_.Wait(&mu_);
  return *results_[index];
}

bool JoinServer::AllDoneLocked() const {
  for (const auto& result : results_)
    if (!result->done) return false;
  return true;
}

void JoinServer::WaitAll() {
  MutexLock lock(&mu_);
  while (!AllDoneLocked()) done_cv_.Wait(&mu_);
}

void JoinServer::Shutdown() {
  {
    MutexLock lock(&mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  queue_.Close();
  if (worker_.joinable()) worker_.join();
}

void JoinServer::WorkerLoop() {
  while (true) {
    std::optional<QueuedQuery> queued = queue_.Pop();
    if (!queued.has_value()) return;
    Execute(*queued);
  }
}

void JoinServer::Execute(const QueuedQuery& queued) {
  const int64_t dequeue_ns = obs::MonotonicNanos();
  const JobSpec& job = queued.job;

  QueryResult result;
  QueryRow& row = result.row;
  row.id = job.id;
  row.engine = EngineToken(job.k > 0 ? Algorithm::kKnn : job.engine);
  row.eps = job.eps;
  row.k = job.k;
  row.queue_ns = dequeue_ns - queued.enqueue_ns;

  // Specs were validated at admission; Parse cannot fail here.
  const DatasetSpec r_spec = *DatasetSpec::Parse(job.r);
  const DatasetSpec s_spec = *DatasetSpec::Parse(job.s);
  row.r = r_spec.Canonical();
  row.s = s_spec.Canonical();

  // One obs session per query: its IoStats delta is the row's `io` (the
  // server-ledger component, artifact builds included) and its events
  // become the query's own RunReport.
  obs::Tracer::Get().StartSession(disk_);

  Status st = Status::OK();
  CollectingSink sink;
  bool matrix_hit = false;
  do {
    // Datasets first (a self-join needs both refs to be the same cached
    // object), then the memoized matrix.
    Result<const VectorDataset*> rd = cache_.GetDataset(r_spec);
    if (!rd.ok()) {
      st = rd.status();
      break;
    }
    Result<const VectorDataset*> sd = cache_.GetDataset(s_spec);
    if (!sd.ok()) {
      st = sd.status();
      break;
    }

    JoinOptions join_options;
    join_options.algorithm = job.engine;
    join_options.buffer_pages = job.buffer_pages;
    join_options.norm = options_.norm;
    join_options.filter_iterations = options_.filter_iterations;
    join_options.seed = options_.seed;
    join_options.page_size_bytes = options_.page_size_bytes;
    join_options.num_threads = job.num_threads;

    JoinResources resources;
    resources.shared_pool = &pool_;

    Result<JoinReport> report = JoinReport{};
    if (job.k > 0) {
      // kNN query: the candidate matrix is ε- and k-free, so every kNN
      // query on this dataset pair (any k) shares one cached build.
      Result<const ArtifactCache::CachedKnnMatrix*> km =
          cache_.GetKnnMatrix(r_spec, s_spec, options_.norm, &matrix_hit);
      if (!km.ok()) {
        st = km.status();
        break;
      }
      resources.knn_matrix = &(*km)->matrix;
      resources.knn_matrix_build_ops = &(*km)->build_ops;
      report = driver_.RunKnnJoin(**rd, **sd, job.k, join_options, &sink,
                                  resources);
    } else {
      Result<const ArtifactCache::CachedMatrix*> cm = cache_.GetMatrix(
          r_spec, s_spec, job.eps, options_.norm, &matrix_hit);
      if (!cm.ok()) {
        st = cm.status();
        break;
      }
      resources.matrix = &(*cm)->matrix;
      resources.matrix_build_ops = &(*cm)->build_ops;
      report = driver_.RunVector(**rd, **sd, job.eps, join_options, &sink,
                                 resources);
    }
    if (!report.ok()) {
      st = report.status();
      break;
    }
    result.report = std::move(report).value();

    // Query boundary: a leaked pin would shrink every later query's
    // effective buffer; fail loudly instead.
    st = pool_.CheckQuiescent();
  } while (false);

  obs::Tracer::Get().StopSession();

  obs::RunReport query_report;
  query_report.SetContext("tool", "pmjoin_server");
  query_report.SetContext("query", row.id);
  query_report.SetContext("engine", row.engine);
  query_report.SetContext("r", row.r);
  query_report.SetContext("s", row.s);
  query_report.SetContext("eps", row.eps);
  query_report.SetContext("k", static_cast<uint64_t>(row.k));
  query_report.SetContext("matrix_cache_hit",
                          static_cast<uint64_t>(matrix_hit ? 1 : 0));
  query_report.CaptureSession();

  row.matrix_cache_hit = matrix_hit;
  row.io = query_report.io_totals();
  row.exec_ns = obs::MonotonicNanos() - dequeue_ns;
  if (st.ok()) {
    row.status = "ok";
    row.executed = true;
    row.result_pairs = result.report.result_pairs;
    row.join_io = result.report.io;
    row.ops = result.report.ops;
    row.num_clusters = result.report.num_clusters;
    result.pairs = sink.Sorted();
  } else {
    row.status = "failed";
    row.error = st.message();
  }

  if (!options_.query_report_dir.empty()) {
    std::string name = row.id;
    for (char& c : name)
      if (c == '/') c = '_';
    const Status write_st = query_report.WriteFile(
        options_.query_report_dir + "/" + name + ".json");
    if (!write_st.ok() && row.status == "ok") {
      row.status = "failed";
      row.error = write_st.message();
      row.executed = true;  // the join itself ran and is attributable
    }
  }

  Finish(queued.index, std::move(result));
}

void JoinServer::Finish(uint64_t index, QueryResult result) {
  result.done = true;
  {
    MutexLock lock(&mu_);
    if (result.row.status == "ok")
      ++admission_stats_.completed;
    else if (result.row.status == "failed")
      ++admission_stats_.failed;
    *results_[index] = std::move(result);
  }
  done_cv_.NotifyAll();
}

ServerReport JoinServer::BuildReport() {
  ServerReport report;
  report.SetContext("tool", "pmjoin_server");
  report.SetContext("pool_pages", static_cast<uint64_t>(options_.pool_pages));
  report.SetContext("default_buffer_pages",
                    static_cast<uint64_t>(options_.default_buffer_pages));
  report.SetContext("max_queue_depth",
                    static_cast<uint64_t>(queue_.capacity()));
  report.SetContext("page_size_bytes",
                    static_cast<uint64_t>(options_.page_size_bytes));
  report.SetContext("norm", NormName(options_.norm));
  report.SetContext("seed", options_.seed);

  MutexLock lock(&mu_);
  for (const auto& result : results_)
    if (result->done) report.AddQuery(result->row);

  report.SetIoTotals(disk_->stats().Delta(server_start_io_));

  report.SetCacheStats(cache_.stats());

  ServerReport::AdmissionStats admission_row = admission_stats_;
  admission_row.max_queue_depth = queue_.MaxDepthSeen();
  report.SetAdmissionStats(admission_row);
  return report;
}

}  // namespace server
}  // namespace pmjoin
