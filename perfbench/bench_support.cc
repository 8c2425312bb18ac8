#include "bench_support.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <thread>

#include "core/reference_join.h"

namespace perfbench {

std::string PairDigest::ToString() const {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%llu:%016llx%016llx",
                static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(sum),
                static_cast<unsigned long long>(mix));
  return buf;
}

int32_t SpanLog::Open(const char* name) {
  SpanRecord span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.query = query_;
  const int32_t index = static_cast<int32_t>(spans_.size());
  spans_.push_back(span);
  stack_.push_back(index);
  // Stamped last so the bookkeeping above is not charged to the span.
  spans_[index].start_ns = NowNs();
  return index;
}

std::vector<int64_t> SpanLog::SelfNs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) self[span.parent] -= span.end_ns - span.start_ns;
  }
  return self;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":" << JsonString(s.name)
        << ",\"query\":" << s.query << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

namespace {

/// Runs `job(lo, hi, out)` over contiguous row ranges of `rows` on up to
/// four threads and concatenates the outputs in range order.
template <typename T, typename Job>
std::vector<T> SplitRows(size_t rows, Job job) {
  const size_t threads = std::max<size_t>(
      1, std::min<size_t>({4, std::thread::hardware_concurrency(), rows}));
  std::vector<std::vector<T>> parts(threads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      job(rows * t / threads, rows * (t + 1) / threads, &parts[t]);
    });
  }
  for (std::thread& w : workers) w.join();
  std::vector<T> out;
  for (std::vector<T>& part : parts)
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  return out;
}

pmjoin::VectorData Rows(const pmjoin::VectorData& data, size_t lo, size_t hi) {
  pmjoin::VectorData out;
  out.dims = data.dims;
  out.values.assign(data.values.begin() + lo * data.dims,
                    data.values.begin() + hi * data.dims);
  return out;
}

}  // namespace

std::vector<std::pair<uint64_t, uint64_t>> ReferenceVectorPairs(
    const pmjoin::VectorData& r, const pmjoin::VectorData& s, double eps,
    bool self_join) {
  using Pair = std::pair<uint64_t, uint64_t>;
  return SplitRows<Pair>(
      r.count(), [&](size_t lo, size_t hi, std::vector<Pair>* out) {
        pmjoin::CollectingSink sink;
        pmjoin::ReferenceVectorJoin(Rows(r, lo, hi), s, eps, pmjoin::Norm::kL2,
                                    /*self_join=*/false, &sink);
        for (const auto& [i, j] : sink.pairs()) {
          if (!self_join || lo + i < j) out->emplace_back(lo + i, j);
        }
      });
}

std::vector<std::vector<uint64_t>> ReferenceKnnRows(
    const pmjoin::VectorData& r, const pmjoin::VectorData& s, uint32_t k,
    bool self_join) {
  using Row = std::vector<uint64_t>;
  return SplitRows<Row>(
      r.count(), [&](size_t lo, size_t hi, std::vector<Row>* out) {
        // A self join asks for one more neighbour and drops the row itself;
        // what remains is the k nearest of the others, in the same order.
        pmjoin::CollectingSink sink;
        pmjoin::ReferenceKnnJoin(Rows(r, lo, hi), s, self_join ? k + 1 : k,
                                 pmjoin::Norm::kL2, /*self_join=*/false,
                                 &sink);
        out->resize(hi - lo);
        for (const auto& [i, j] : sink.pairs()) {
          if (!(self_join && lo + i == j)) (*out)[i].push_back(j);
        }
        for (Row& row : *out) row.resize(std::min<size_t>(row.size(), k));
      });
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace perfbench
