#include "obs/run_report.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <utility>

namespace pmjoin {
namespace obs {

namespace {

void AppendF(std::string* out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  const int n = vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  if (n > 0) out->append(buffer, static_cast<size_t>(n));
}

std::string LeafName(const std::string& path) {
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

// Parent path of "a/b/c" is "a/b"; roots have no parent.
bool ParentPath(const std::string& path, std::string* parent) {
  const size_t slash = path.rfind('/');
  if (slash == std::string::npos) return false;
  *parent = path.substr(0, slash);
  return true;
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void AppendJsonIoStats(std::string* out, const IoStats& io) {
  AppendF(out,
          "{\"pages_read\":%" PRIu64 ",\"pages_written\":%" PRIu64
          ",\"seeks\":%" PRIu64 ",\"sequential_reads\":%" PRIu64
          ",\"buffer_hits\":%" PRIu64 "}",
          io.pages_read, io.pages_written, io.seeks, io.sequential_reads,
          io.buffer_hits);
}

void AppendJsonOpCounters(std::string* out, const OpCounters& ops) {
  AppendF(out,
          "{\"distance_terms\":%" PRIu64 ",\"filter_checks\":%" PRIu64
          ",\"edit_cells\":%" PRIu64 ",\"mbr_tests\":%" PRIu64
          ",\"cluster_ops\":%" PRIu64 ",\"result_pairs\":%" PRIu64 "}",
          ops.distance_terms, ops.filter_checks, ops.edit_cells,
          ops.mbr_tests, ops.cluster_ops, ops.result_pairs);
}

Status WriteTextFile(const std::string& path, const std::string& content) {
  FILE* file = fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IoError("cannot open report file: " + path);
  }
  const size_t written = fwrite(content.data(), 1, content.size(), file);
  const bool close_ok = fclose(file) == 0;
  if (written != content.size() || !close_ok) {
    return Status::IoError("short write to report file: " + path);
  }
  return Status::OK();
}

void ReportContext::SetContext(const std::string& key,
                               const std::string& value) {
  context_.emplace_back(key, JsonEscape(value));
}

void ReportContext::SetContext(const std::string& key, const char* value) {
  context_.emplace_back(key, JsonEscape(value));
}

void ReportContext::SetContext(const std::string& key, int64_t value) {
  context_.emplace_back(key, std::to_string(value));
}

void ReportContext::SetContext(const std::string& key, uint64_t value) {
  context_.emplace_back(key, std::to_string(value));
}

void ReportContext::SetContext(const std::string& key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  context_.emplace_back(key, buf);
}

void ReportContext::AppendContextJson(std::string* out) const {
  *out += ",\"context\":{";
  for (size_t i = 0; i < context_.size(); ++i) {
    if (i != 0) *out += ',';
    *out += JsonEscape(context_[i].first);
    *out += ':';
    *out += context_[i].second;
  }
  *out += '}';
}

void RunReport::AddRowJson(std::string json_object) {
  rows_.push_back(std::move(json_object));
}

void RunReport::CaptureSession() { CaptureSession(Tracer::Get().TakeEvents()); }

void RunReport::CaptureSession(const std::vector<TraceEvent>& events) {
  io_totals_ = Tracer::Get().SessionIo();
  metrics_ = MetricsRegistry::Get().Snapshot();

  // Fold occurrences by path. std::map keeps the output order
  // deterministic (lexicographic by path).
  std::map<std::string, PhaseRow> by_path;
  for (const TraceEvent& event : events) {
    PhaseRow& row = by_path[event.path];
    if (row.count == 0) {
      row.path = event.path;
      row.name = LeafName(event.path);
    }
    ++row.count;
    row.wall_ns += event.end_ns - event.start_ns;
    if (event.has_io) {
      row.has_io = true;
      row.io += event.io;
    }
    if (event.has_ops) {
      row.has_ops = true;
      row.ops += event.ops;
    }
  }

  // Exclusive I/O: a child span's interval lies inside its parent's (both
  // run on the session thread, and the counters are monotonic), so the
  // parent's inclusive delta contains the child's. Subtracting every
  // phase's inclusive delta from its parent's exclusive share telescopes:
  // summing io_self over all phases yields exactly the inclusive deltas of
  // the root phases, and unattributed_io closes the gap to the session
  // totals — the per-phase ledger sums to IoStats exactly, by
  // construction and verifiably (tools/validate_report.py).
  // A phase is a ledger root when it has no parent row carrying I/O — the
  // normal case is a depth-0 span, but a child whose parent event was
  // dropped (span straddling the session boundary) degrades to a root
  // rather than double-counting.
  const auto io_parent = [&by_path](const std::string& path) {
    std::string parent = path;
    std::map<std::string, PhaseRow>::iterator it;
    while (ParentPath(parent, &parent)) {
      it = by_path.find(parent);
      if (it != by_path.end() && it->second.has_io) return it;
    }
    return by_path.end();
  };
  for (auto& [path, row] : by_path) row.io_self = row.io;
  unattributed_io_ = io_totals_;
  for (auto& [path, row] : by_path) {
    if (!row.has_io) continue;
    const auto it = io_parent(path);
    if (it != by_path.end()) {
      it->second.io_self = it->second.io_self.Delta(row.io);
    } else {
      unattributed_io_ = unattributed_io_.Delta(row.io);
    }
  }

  phases_.clear();
  phases_.reserve(by_path.size());
  for (auto& [path, row] : by_path) phases_.push_back(std::move(row));
}

std::string RunReport::ToJson() const {
  std::string out = "{\"schema\":";
  out += JsonEscape(kSchema);
  AppendContextJson(&out);

  out += ",\"io_totals\":";
  AppendJsonIoStats(&out, io_totals_);
  out += ",\"unattributed_io\":";
  AppendJsonIoStats(&out, unattributed_io_);

  out += ",\"phases\":[";
  for (size_t i = 0; i < phases_.size(); ++i) {
    const PhaseRow& row = phases_[i];
    if (i != 0) out += ',';
    out += "{\"path\":";
    out += JsonEscape(row.path);
    out += ",\"name\":";
    out += JsonEscape(row.name);
    AppendF(&out, ",\"count\":%" PRIu64 ",\"wall_ns\":%lld", row.count,
            static_cast<long long>(row.wall_ns));
    if (row.has_io) {
      out += ",\"io\":";
      AppendJsonIoStats(&out, row.io);
      out += ",\"io_self\":";
      AppendJsonIoStats(&out, row.io_self);
    }
    if (row.has_ops) {
      out += ",\"ops\":";
      AppendJsonOpCounters(&out, row.ops);
    }
    out += '}';
  }
  out += ']';

  out += ",\"metrics\":[";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const MetricsRegistry::MetricRow& row = metrics_[i];
    if (i != 0) out += ',';
    out += "{\"name\":";
    out += JsonEscape(row.name);
    out += ",\"type\":";
    out += JsonEscape(row.type);
    AppendF(&out, ",\"value\":%lld", static_cast<long long>(row.value));
    if (row.type == "histogram") {
      out += ",\"buckets\":[";
      for (size_t b = 0; b < row.buckets.size(); ++b) {
        if (b != 0) out += ',';
        AppendF(&out, "[%u,%" PRIu64 "]", row.buckets[b].first,
                row.buckets[b].second);
      }
      out += ']';
    }
    out += '}';
  }
  out += ']';

  out += ",\"rows\":[";
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (i != 0) out += ',';
    out += rows_[i];
  }
  out += "]}\n";
  return out;
}

Status RunReport::WriteFile(const std::string& path) const {
  return WriteTextFile(path, ToJson());
}

}  // namespace obs
}  // namespace pmjoin
