#include "benchdiff.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>

namespace lo::benchdiff {

namespace {

// Scanning helpers over the raw document text. The grammar we rely on:
// somewhere in the file there is `"benchmarks"` followed by `[`, containing
// `{...}` objects whose scalar string/number fields we pick out by key.
// Nested arrays/objects inside an entry (google-benchmark has none today)
// are skipped bracket-counted.

std::size_t skip_ws(const std::string& s, std::size_t i) {
  while (i < s.size() &&
         std::isspace(static_cast<unsigned char>(s[i])) != 0) {
    ++i;
  }
  return i;
}

// Parses the JSON string starting at the opening quote; returns the value
// and advances i past the closing quote. Escapes are passed through
// undecoded except \" and \\ (benchmark names never need more).
std::string parse_string(const std::string& s, std::size_t& i) {
  std::string out;
  ++i;  // opening quote
  while (i < s.size() && s[i] != '"') {
    if (s[i] == '\\' && i + 1 < s.size()) {
      out.push_back(s[i + 1]);
      i += 2;
    } else {
      out.push_back(s[i]);
      ++i;
    }
  }
  if (i >= s.size()) throw std::runtime_error("unterminated string");
  ++i;  // closing quote
  return out;
}

double parse_number(const std::string& s, std::size_t& i) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str() + i, &end);
  if (end == s.c_str() + i) throw std::runtime_error("bad number");
  i = static_cast<std::size_t>(end - s.c_str());
  return v;
}

void skip_value(const std::string& s, std::size_t& i);

void skip_container(const std::string& s, std::size_t& i, char open,
                    char close) {
  int depth = 0;
  while (i < s.size()) {
    const char c = s[i];
    if (c == '"') {
      parse_string(s, i);
      continue;
    }
    if (c == open) ++depth;
    if (c == close && --depth == 0) {
      ++i;
      return;
    }
    ++i;
  }
  throw std::runtime_error("unterminated container");
}

void skip_value(const std::string& s, std::size_t& i) {
  i = skip_ws(s, i);
  if (i >= s.size()) throw std::runtime_error("missing value");
  const char c = s[i];
  if (c == '"') {
    parse_string(s, i);
  } else if (c == '{') {
    skip_container(s, i, '{', '}');
  } else if (c == '[') {
    skip_container(s, i, '[', ']');
  } else {
    // number / true / false / null — run to the next delimiter
    while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']') ++i;
  }
}

BenchEntry parse_entry(const std::string& s, std::size_t& i) {
  BenchEntry e;
  i = skip_ws(s, i);
  if (i >= s.size() || s[i] != '{') throw std::runtime_error("expected '{'");
  ++i;
  while (true) {
    i = skip_ws(s, i);
    if (i >= s.size()) throw std::runtime_error("unterminated entry");
    if (s[i] == '}') {
      ++i;
      return e;
    }
    if (s[i] == ',') {
      ++i;
      continue;
    }
    if (s[i] != '"') throw std::runtime_error("expected key");
    const std::string key = parse_string(s, i);
    i = skip_ws(s, i);
    if (i >= s.size() || s[i] != ':') throw std::runtime_error("expected ':'");
    ++i;
    i = skip_ws(s, i);
    if (key == "name" && i < s.size() && s[i] == '"') {
      e.name = parse_string(s, i);
    } else if (key == "items_per_second") {
      e.items_per_second = parse_number(s, i);
    } else if (key == "real_time") {
      e.real_time = parse_number(s, i);
    } else if (key == "better" && i < s.size() && s[i] == '"') {
      e.lower_is_better = parse_string(s, i) == "lower";
    } else {
      skip_value(s, i);
    }
  }
}

}  // namespace

std::vector<BenchEntry> parse_bench_json(const std::string& text) {
  const std::size_t key = text.find("\"benchmarks\"");
  if (key == std::string::npos) {
    throw std::runtime_error("no \"benchmarks\" array in document");
  }
  std::size_t i = text.find('[', key);
  if (i == std::string::npos) {
    throw std::runtime_error("\"benchmarks\" has no array value");
  }
  ++i;
  std::vector<BenchEntry> out;
  while (true) {
    i = skip_ws(text, i);
    if (i >= text.size()) throw std::runtime_error("unterminated benchmarks");
    if (text[i] == ']') break;
    if (text[i] == ',') {
      ++i;
      continue;
    }
    BenchEntry e = parse_entry(text, i);
    if (!e.name.empty()) out.push_back(std::move(e));
  }
  return out;
}

DiffResult diff(const std::vector<BenchEntry>& baseline,
                const std::vector<BenchEntry>& fresh, const Tolerance& tol) {
  // Better-is-higher metric: items_per_second when present (inverted for
  // lower-is-better entries), else inverted real_time, so ratio > 1 always
  // means "got better".
  auto metric = [](const BenchEntry& e, bool lower_is_better) {
    if (e.items_per_second > 0.0) {
      return lower_is_better ? 1.0 / e.items_per_second : e.items_per_second;
    }
    if (e.real_time > 0.0) return 1.0 / e.real_time;
    return 0.0;
  };
  std::map<std::string, const BenchEntry*> fresh_by;
  for (const auto& e : fresh) fresh_by[e.name] = &e;

  DiffResult r;
  for (const auto& base : baseline) {
    DiffLine line;
    line.name = base.name;
    auto it = fresh_by.find(base.name);
    if (it == fresh_by.end()) {
      line.baseline = metric(base, base.lower_is_better);
      line.status = DiffLine::Status::kMissing;
      ++r.failures;
    } else {
      const bool lower = base.lower_is_better || it->second->lower_is_better;
      line.baseline = metric(base, lower);
      line.fresh = metric(*it->second, lower);
      line.ratio = line.baseline > 0.0 ? line.fresh / line.baseline : 0.0;
      if (line.ratio < tol.min_ratio || line.ratio > tol.max_ratio) {
        line.status = DiffLine::Status::kOutOfBand;
        ++r.failures;
      }
      fresh_by.erase(it);
    }
    r.lines.push_back(std::move(line));
  }
  for (const auto& [name, e] : fresh_by) {
    DiffLine line;
    line.name = name;
    line.fresh = metric(*e, e->lower_is_better);
    line.status = DiffLine::Status::kNew;
    r.lines.push_back(std::move(line));
  }
  return r;
}

std::string render(const DiffResult& r) {
  std::string out;
  char buf[256];
  for (const auto& line : r.lines) {
    const char* tag = "ok       ";
    switch (line.status) {
      case DiffLine::Status::kOk: break;
      case DiffLine::Status::kMissing: tag = "MISSING  "; break;
      case DiffLine::Status::kNew: tag = "new      "; break;
      case DiffLine::Status::kOutOfBand: tag = "DRIFT    "; break;
    }
    std::snprintf(buf, sizeof(buf),
                  "%s %-40s base=%-12.4g fresh=%-12.4g ratio=%.3f\n", tag,
                  line.name.c_str(), line.baseline, line.fresh, line.ratio);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "%zu benchmark(s), %zu failure(s)\n",
                r.lines.size(), r.failures);
  out += buf;
  return out;
}

std::optional<std::string> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) return std::nullopt;
  return out;
}

}  // namespace lo::benchdiff
