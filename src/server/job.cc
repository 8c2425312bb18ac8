#include "server/job.h"

#include <cctype>
#include <cstdlib>
#include <map>
#include <utility>

namespace pmjoin {
namespace server {

namespace {

/// Scalar value of a flat JSON object: the repo carries no JSON
/// dependency and the no-throw rule rules out std::stod-style parsing, so
/// job lines are decoded by this small Status-based recognizer.
struct JsonScalar {
  enum class Type { kString, kNumber, kBool };
  Type type = Type::kString;
  std::string text;   // string value, or raw number/bool token
  double number = 0;  // valid when type == kNumber
};

/// Cursor over one job line.
struct Lexer {
  const std::string& s;
  size_t pos = 0;

  void SkipWs() {
    while (pos < s.size() &&
           std::isspace(static_cast<unsigned char>(s[pos])) != 0)
      ++pos;
  }
  bool Eat(char c) {
    SkipWs();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
};

Status LexString(Lexer* lex, std::string* out) {
  if (!lex->Eat('"')) return Status::InvalidArgument("expected '\"'");
  out->clear();
  while (lex->pos < lex->s.size()) {
    char c = lex->s[lex->pos++];
    if (c == '"') return Status::OK();
    if (c == '\\') {
      if (lex->pos >= lex->s.size())
        return Status::InvalidArgument("dangling escape in string");
      c = lex->s[lex->pos++];
      if (c != '"' && c != '\\' && c != '/')
        return Status::InvalidArgument("unsupported escape in string");
    }
    out->push_back(c);
  }
  return Status::InvalidArgument("unterminated string");
}

Status LexScalar(Lexer* lex, JsonScalar* out) {
  lex->SkipWs();
  if (lex->pos >= lex->s.size())
    return Status::InvalidArgument("expected a value");
  const char first = lex->s[lex->pos];
  if (first == '"') {
    out->type = JsonScalar::Type::kString;
    return LexString(lex, &out->text);
  }
  if (first == '{' || first == '[')
    return Status::InvalidArgument(
        "nested values are not part of the job grammar");
  const size_t start = lex->pos;
  while (lex->pos < lex->s.size() && lex->s[lex->pos] != ',' &&
         lex->s[lex->pos] != '}' &&
         std::isspace(static_cast<unsigned char>(lex->s[lex->pos])) == 0)
    ++lex->pos;
  out->text = lex->s.substr(start, lex->pos - start);
  if (out->text == "true" || out->text == "false") {
    out->type = JsonScalar::Type::kBool;
    return Status::OK();
  }
  char* end = nullptr;
  out->number = std::strtod(out->text.c_str(), &end);
  if (end == nullptr || *end != '\0' || out->text.empty())
    return Status::InvalidArgument("malformed value: " + out->text);
  out->type = JsonScalar::Type::kNumber;
  return Status::OK();
}

/// Parses `{"key": scalar, ...}`; duplicate keys are an error.
Status ParseFlatObject(const std::string& line,
                       std::map<std::string, JsonScalar>* out) {
  Lexer lex{line};
  if (!lex.Eat('{')) return Status::InvalidArgument("expected '{'");
  lex.SkipWs();
  if (lex.Eat('}')) {
    lex.SkipWs();
    return lex.pos == line.size()
               ? Status::OK()
               : Status::InvalidArgument("trailing text after object");
  }
  while (true) {
    std::string key;
    Status st = LexString(&lex, &key);
    if (!st.ok()) return st;
    if (!lex.Eat(':'))
      return Status::InvalidArgument("expected ':' after key " + key);
    JsonScalar value;
    st = LexScalar(&lex, &value);
    if (!st.ok()) return st;
    if (!out->emplace(key, std::move(value)).second)
      return Status::InvalidArgument("duplicate key: " + key);
    if (lex.Eat(',')) continue;
    if (lex.Eat('}')) break;
    return Status::InvalidArgument("expected ',' or '}' after value");
  }
  lex.SkipWs();
  if (lex.pos != line.size())
    return Status::InvalidArgument("trailing text after object");
  return Status::OK();
}

std::string Lower(std::string text) {
  for (char& c : text)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return text;
}

}  // namespace

Status ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty()) return Status::InvalidArgument("empty number");
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9')
      return Status::InvalidArgument("not a number: " + text);
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10)
      return Status::InvalidArgument("number out of range: " + text);
    value = value * 10 + digit;
  }
  *out = value;
  return Status::OK();
}

Result<DatasetSpec> DatasetSpec::Parse(const std::string& text) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t slash = text.find('/', start);
    parts.push_back(text.substr(start, slash - start));
    if (slash == std::string::npos) break;
    start = slash + 1;
  }
  if (parts.size() < 3 || parts.size() > 4)
    return Status::InvalidArgument(
        "dataset spec must be <gen>/<n>/<seed>[/<dims>]: " + text);

  DatasetSpec spec;
  const std::string gen = Lower(parts[0]);
  if (gen == "road") {
    spec.kind = Kind::kRoad;
    spec.dims = 2;
  } else if (gen == "clusters") {
    spec.kind = Kind::kClusters;
    spec.dims = 8;
  } else if (gen == "uniform") {
    spec.kind = Kind::kUniform;
    spec.dims = 8;
  } else {
    return Status::InvalidArgument(
        "unknown generator (want road|clusters|uniform): " + parts[0]);
  }

  Status st = ParseUint(parts[1], &spec.n);
  if (!st.ok()) return Status::InvalidArgument("bad n in spec " + text);
  if (spec.n == 0)
    return Status::InvalidArgument("dataset spec n must be > 0: " + text);
  st = ParseUint(parts[2], &spec.seed);
  if (!st.ok()) return Status::InvalidArgument("bad seed in spec " + text);
  if (parts.size() == 4) {
    if (spec.kind == Kind::kRoad)
      return Status::InvalidArgument("road is 2-d; drop the dims segment");
    uint64_t dims = 0;
    st = ParseUint(parts[3], &dims);
    if (!st.ok() || dims == 0 || dims > 1024)
      return Status::InvalidArgument("bad dims in spec " + text);
    spec.dims = static_cast<uint32_t>(dims);
  }
  if (spec.n > kMaxCoordinates / spec.dims)
    return Status::InvalidArgument(
        "dataset spec n x dims exceeds the limit of " +
        std::to_string(kMaxCoordinates) + " coordinates: " + text);
  return spec;
}

std::string DatasetSpec::Canonical() const {
  std::string out;
  switch (kind) {
    case Kind::kRoad:
      out = "road";
      break;
    case Kind::kClusters:
      out = "clusters";
      break;
    case Kind::kUniform:
      out = "uniform";
      break;
  }
  out += '-';
  out += std::to_string(n);
  out += '-';
  out += std::to_string(seed);
  if (kind != Kind::kRoad) {
    out += "-d";
    out += std::to_string(dims);
  }
  return out;
}

VectorData DatasetSpec::Generate() const {
  switch (kind) {
    case Kind::kRoad:
      return GenRoadNetwork(n, seed);
    case Kind::kClusters:
      return GenCorrelatedClusters(n, dims, seed);
    case Kind::kUniform:
      return GenUniform(n, dims, seed);
  }
  return VectorData{};
}

Result<Algorithm> ParseEngine(const std::string& text) {
  const std::string token = Lower(text);
  if (token == "nlj") return Algorithm::kNlj;
  if (token == "pm-nlj") return Algorithm::kPmNlj;
  if (token == "rand-sc") return Algorithm::kRandomSc;
  if (token == "sc") return Algorithm::kSc;
  if (token == "cc") return Algorithm::kCc;
  return Status::InvalidArgument(
      "unknown engine (want nlj|pm-nlj|rand-sc|sc|cc): " + text);
}

std::string EngineToken(Algorithm algorithm) {
  return Lower(AlgorithmName(algorithm));
}

Result<std::optional<JobSpec>> ParseJobLine(const std::string& line) {
  size_t first = 0;
  while (first < line.size() &&
         std::isspace(static_cast<unsigned char>(line[first])) != 0)
    ++first;
  if (first == line.size() || line[first] == '#')
    return std::optional<JobSpec>();

  std::map<std::string, JsonScalar> object;
  Status st = ParseFlatObject(line, &object);
  if (!st.ok()) return st;

  JobSpec job;
  for (const auto& [key, value] : object) {
    if (key == "cmd") {
      if (value.text != "submit")
        return Status::InvalidArgument("unknown cmd: " + value.text);
    } else if (key == "id") {
      job.id = value.text;
    } else if (key == "r") {
      job.r = value.text;
    } else if (key == "s") {
      job.s = value.text;
    } else if (key == "eps") {
      if (value.type != JsonScalar::Type::kNumber)
        return Status::InvalidArgument("eps must be a number");
      job.eps = value.number;
    } else if (key == "engine") {
      PMJOIN_ASSIGN_OR_RETURN(job.engine, ParseEngine(value.text));
    } else if (key == "buffer_pages" || key == "threads" || key == "k") {
      if (value.type != JsonScalar::Type::kNumber || value.number < 0 ||
          value.number != static_cast<double>(
                              static_cast<uint32_t>(value.number)))
        return Status::InvalidArgument(key + " must be a small integer");
      (key == "buffer_pages"
           ? job.buffer_pages
           : key == "threads" ? job.num_threads : job.k) =
          static_cast<uint32_t>(value.number);
    } else {
      return Status::InvalidArgument("unknown job key: " + key);
    }
  }
  if (job.r.empty() || job.s.empty())
    return Status::InvalidArgument("job needs both \"r\" and \"s\"");
  if (job.k > 0) {
    // kNN job: its own query type, so the ε-join knobs must be absent.
    if (object.count("eps") != 0)
      return Status::InvalidArgument(
          "\"eps\" and \"k\" are mutually exclusive");
    if (object.count("engine") != 0)
      return Status::InvalidArgument("\"engine\" does not apply to kNN jobs");
  } else if (object.count("k") != 0) {
    return Status::InvalidArgument("job needs \"k\" >= 1");
  } else if (job.eps <= 0.0) {
    return Status::InvalidArgument("job needs \"eps\" > 0 (or \"k\" for kNN)");
  }
  return std::optional<JobSpec>(std::move(job));
}

Result<std::vector<JobSpec>> ParseJobStream(std::istream& in) {
  std::vector<JobSpec> jobs;
  std::string line;
  uint64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    Result<std::optional<JobSpec>> parsed = ParseJobLine(line);
    if (!parsed.ok())
      return Status::InvalidArgument("line " + std::to_string(lineno) +
                                     ": " + parsed.status().message());
    if (parsed.value().has_value())
      jobs.push_back(std::move(*parsed.value()));
  }
  return jobs;
}

}  // namespace server
}  // namespace pmjoin
