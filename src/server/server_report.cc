#include "server/server_report.h"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "obs/run_report.h"

namespace pmjoin {
namespace server {

namespace {

using obs::AppendJsonIoStats;
using obs::AppendJsonOpCounters;
using obs::JsonEscape;

void AppendU64(std::string* out, const char* key, uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64, key, value);
  *out += buf;
}

void AppendI64(std::string* out, const char* key, int64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%lld", key,
                static_cast<long long>(value));
  *out += buf;
}

}  // namespace

void ServerReport::AddQuery(QueryRow row) {
  if (row.executed) {
    const int64_t total_ns = row.queue_ns + row.exec_ns;
    const uint64_t us =
        total_ns <= 0 ? 0 : static_cast<uint64_t>(total_ns) / 1000;
    ++latency_buckets_[std::bit_width(us)];
  }
  queries_.push_back(std::move(row));
}

void ServerReport::SetIoTotals(const IoStats& totals) {
  io_totals_ = totals;
}

IoStats ServerReport::UnattributedIo() const {
  IoStats attributed;
  for (const QueryRow& row : queries_) attributed += row.io;
  return io_totals_.Delta(attributed);
}

std::string ServerReport::ToJson() const {
  std::string out = "{\"schema\":";
  out += JsonEscape(kSchema);
  AppendContextJson(&out);

  out += ",\"queries\":[";
  for (size_t i = 0; i < queries_.size(); ++i) {
    const QueryRow& row = queries_[i];
    if (i != 0) out += ',';
    out += "{\"id\":";
    out += JsonEscape(row.id);
    out += ",\"engine\":";
    out += JsonEscape(row.engine);
    out += ",\"r\":";
    out += JsonEscape(row.r);
    out += ",\"s\":";
    out += JsonEscape(row.s);
    char buf[48];
    std::snprintf(buf, sizeof(buf), ",\"eps\":%.17g,", row.eps);
    out += buf;
    AppendU64(&out, "k", row.k);
    out += ',';
    out += "\"status\":";
    out += JsonEscape(row.status);
    if (!row.error.empty()) {
      out += ",\"error\":";
      out += JsonEscape(row.error);
    }
    out += ',';
    AppendU64(&out, "result_pairs", row.result_pairs);
    out += ',';
    AppendI64(&out, "queue_ns", row.queue_ns);
    out += ',';
    AppendI64(&out, "exec_ns", row.exec_ns);
    out += ",\"matrix_cache_hit\":";
    out += row.matrix_cache_hit ? "true" : "false";
    out += ",\"io\":";
    AppendJsonIoStats(&out, row.io);
    if (row.executed) {
      out += ",\"join_io\":";
      AppendJsonIoStats(&out, row.join_io);
      out += ",\"ops\":";
      AppendJsonOpCounters(&out, row.ops);
      out += ',';
      AppendU64(&out, "num_clusters", row.num_clusters);
    }
    out += '}';
  }
  out += ']';

  out += ",\"io_totals\":";
  AppendJsonIoStats(&out, io_totals_);
  out += ",\"unattributed_io\":";
  AppendJsonIoStats(&out, UnattributedIo());

  out += ",\"latency_histogram_us\":[";
  bool first = true;
  for (uint32_t b = 0; b < kLatencyBuckets; ++b) {
    if (latency_buckets_[b] == 0) continue;
    if (!first) out += ',';
    first = false;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "[%u,%" PRIu64 "]", b,
                  latency_buckets_[b]);
    out += buf;
  }
  out += ']';

  out += ",\"cache\":{";
  AppendU64(&out, "dataset_hits", cache_.dataset_hits);
  out += ',';
  AppendU64(&out, "dataset_opens", cache_.dataset_opens);
  out += ',';
  AppendU64(&out, "dataset_builds", cache_.dataset_builds);
  out += ',';
  AppendU64(&out, "matrix_hits", cache_.matrix_hits);
  out += ',';
  AppendU64(&out, "matrix_builds", cache_.matrix_builds);
  out += ',';
  AppendU64(&out, "knn_matrix_hits", cache_.knn_matrix_hits);
  out += ',';
  AppendU64(&out, "knn_matrix_builds", cache_.knn_matrix_builds);
  out += '}';

  out += ",\"admission\":{";
  AppendU64(&out, "submitted", admission_.submitted);
  out += ',';
  AppendU64(&out, "admitted", admission_.admitted);
  out += ',';
  AppendU64(&out, "rejected", admission_.rejected);
  out += ',';
  AppendU64(&out, "completed", admission_.completed);
  out += ',';
  AppendU64(&out, "failed", admission_.failed);
  out += ',';
  AppendU64(&out, "max_queue_depth", admission_.max_queue_depth);
  out += "}}\n";
  return out;
}

Status ServerReport::WriteFile(const std::string& path) const {
  return obs::WriteTextFile(path, ToJson());
}

}  // namespace server
}  // namespace pmjoin
