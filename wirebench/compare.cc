// wirebench_compare: the run-set comparator.
//
//   wirebench_compare BENCHMARK.json PARENT_DIR CHANGE_DIR
//
// Reads every untraced result file (<workload>-seed<N>-trace0.json, as
// wirebench writes them into its --work-dir) from both directories and
// prints, per workload x metric (the bounded end-to-end metrics, then the
// unbounded latency percentiles and throughput), each side's median and quartiles
// (Python's statistics.quantiles(values, n=4)), the median delta, the
// pairs won and lost, and a verdict:
//   better / worse  the change wins (loses) at least 9 of every 10 pairs,
//                   ties counting for neither, AND the medians differ by
//                   more than the parent's interquartile range;
//   unresolved      otherwise.
// Runs pair up by seed (runs whose seed is missing on the other side are
// left out of the pairs). A median worse than the parent's by more than
// the metric's bound in BENCHMARK.json is flagged "beyond bound".
// Exit code: 0, or 1 when some metric is worse or beyond its bound.
#include <dirent.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------- JSON

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  const Json* Get(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  bool Parse(Json* out) {
    if (!Value(out)) return false;
    Skip();
    return pos_ == s_.size();
  }

 private:
  void Skip() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  bool String(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (++pos_ >= s_.size()) return false;
        const char c = s_[pos_];
        if (c == 'u') {
          pos_ += 4;  // non-ASCII escapes never occur in result files
          out->push_back('?');
        } else {
          out->push_back(c == 'n' ? '\n' : c == 't' ? '\t' : c);
        }
      } else {
        out->push_back(s_[pos_]);
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }

  bool Value(Json* out) {
    Skip();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      out->type = Json::Type::kObject;
      ++pos_;
      Skip();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      for (;;) {
        Skip();
        std::string key;
        if (!String(&key)) return false;
        Skip();
        if (pos_ >= s_.size() || s_[pos_] != ':') return false;
        ++pos_;
        if (!Value(&out->object[key])) return false;
        Skip();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      out->type = Json::Type::kArray;
      ++pos_;
      Skip();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      for (;;) {
        out->array.emplace_back();
        if (!Value(&out->array.back())) return false;
        Skip();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->string);
    }
    if (Literal("true")) {
      out->type = Json::Type::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->type = Json::Type::kBool;
      return true;
    }
    if (Literal("null")) return true;
    char* end = nullptr;
    out->number = std::strtod(s_.c_str() + pos_, &end);
    if (end == s_.c_str() + pos_) return false;
    out->type = Json::Type::kNumber;
    pos_ = static_cast<std::size_t>(end - s_.c_str());
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool ReadJson(const std::string& path, Json* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream text;
  text << in.rdbuf();
  const std::string body = text.str();
  return Parser(body).Parse(out);
}

// ------------------------------------------------------------ statistics

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// statistics.quantiles(v, n=4), method 'exclusive'.
std::pair<double, double> Quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld < 2) {
    const double x = v.empty() ? 0.0 : v[0];
    return {x, x};
  }
  const long m = ld + 1;
  double q[2];
  for (long i = 1; i <= 3; i += 2) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i / 2] = (v[j - 1] * static_cast<double>(4 - delta) +
                v[j] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1]};
}

struct MetricSpec {
  std::string name;
  bool higher_is_better = false;
  double bound = 0.0;
};

// workload -> seed -> metric -> value
using RunSet =
    std::map<std::string, std::map<long, std::map<std::string, double>>>;

bool LoadRuns(const std::string& dir, RunSet* runs) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return false;
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() < 5 || name.substr(name.size() - 5) != ".json") continue;
    Json run;
    if (!ReadJson(dir + "/" + name, &run)) continue;
    const Json* workload = run.Get("workload");
    const Json* seed = run.Get("seed");
    const Json* trace = run.Get("trace");
    const Json* correct = run.Get("correct");
    const Json* metrics = run.Get("end_to_end");
    if (!workload || !seed || !metrics || (trace && trace->number != 0) ||
        (correct && !correct->boolean)) {
      continue;
    }
    auto& slot = (*runs)[workload->string][static_cast<long>(seed->number)];
    for (const Json* section : {metrics, run.Get("unbounded")}) {
      if (section == nullptr) continue;
      for (const auto& [metric, value] : section->object) {
        if (const Json* v = value.Get("value")) slot[metric] = v->number;
      }
    }
  }
  ::closedir(d);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr,
                 "usage: wirebench_compare BENCHMARK.json PARENT_DIR "
                 "CHANGE_DIR\n");
    return 2;
  }
  Json benchmark;
  if (!ReadJson(argv[1], &benchmark) || !benchmark.Get("end_to_end")) {
    std::fprintf(stderr, "cannot read %s\n", argv[1]);
    return 2;
  }
  std::vector<MetricSpec> specs;
  for (const Json& m : benchmark.Get("end_to_end")->array) {
    MetricSpec spec;
    spec.name = m.Get("name") ? m.Get("name")->string : "";
    spec.higher_is_better =
        m.Get("better") && m.Get("better")->string == "higher";
    spec.bound = m.Get("bound") ? m.Get("bound")->number : 0.0;
    specs.push_back(spec);
  }
  // The result files' latency percentiles and throughput: compared, but
  // unbounded.
  for (const char* name :
       {"update_p50_ms", "update_p99_ms", "reduce_p50_ms", "reduce_p99_ms"}) {
    specs.push_back({name, false, std::numeric_limits<double>::infinity()});
  }
  specs.push_back({"throughput_updates_per_s", true,
                   std::numeric_limits<double>::infinity()});
  RunSet parent, change;
  if (!LoadRuns(argv[2], &parent) || !LoadRuns(argv[3], &change)) {
    std::fprintf(stderr, "cannot read the run directories\n");
    return 2;
  }
  std::set<std::string> workloads;
  for (const auto& [w, runs] : parent) workloads.insert(w);
  for (const auto& [w, runs] : change) workloads.insert(w);

  bool regressed = false;
  std::printf("%-12s %-26s %5s %12s %12s %12s %12s %12s %12s %8s %7s  %s\n",
              "workload", "metric", "runs", "parent_q1", "parent_med",
              "parent_q3", "change_q1", "change_med", "change_q3", "delta",
              "won", "verdict");
  for (const auto& workload : workloads) {
    const auto& p = parent[workload];
    const auto& c = change[workload];
    for (const auto& spec : specs) {
      std::vector<double> pv, cv;
      int won = 0, lost = 0, pairs = 0;
      for (const auto& [seed, metrics] : p) {
        const auto it = metrics.find(spec.name);
        if (it != metrics.end()) pv.push_back(it->second);
      }
      for (const auto& [seed, metrics] : c) {
        const auto it = metrics.find(spec.name);
        if (it == metrics.end()) continue;
        cv.push_back(it->second);
        const auto ps = p.find(seed);
        if (ps == p.end()) continue;
        const auto pm = ps->second.find(spec.name);
        if (pm == ps->second.end()) continue;
        ++pairs;
        const double diff = it->second - pm->second;
        if (diff == 0.0) continue;
        ((diff > 0) == spec.higher_is_better ? won : lost) += 1;
      }
      if (pv.empty() || cv.empty()) continue;
      const double pm = Median(pv), cm = Median(cv);
      const auto [pq1, pq3] = Quartiles(pv);
      const auto [cq1, cq3] = Quartiles(cv);
      const double delta = pm != 0.0 ? (cm - pm) / std::fabs(pm) : 0.0;
      const bool resolved = std::fabs(cm - pm) > (pq3 - pq1);
      std::string verdict = "unresolved";
      if (pairs > 0 && resolved && won * 10 >= pairs * 9) verdict = "better";
      if (pairs > 0 && resolved && lost * 10 >= pairs * 9) verdict = "worse";
      const double worsening = spec.higher_is_better ? -delta : delta;
      if (verdict == "worse") regressed = true;
      if (worsening > spec.bound) {
        verdict += " (beyond bound)";
        regressed = true;
      }
      std::printf(
          "%-12s %-26s %2zu/%-2zu %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g "
          "%+7.2f%% %3d/%-3d  %s\n",
          workload.c_str(), spec.name.c_str(), pv.size(), cv.size(), pq1, pm,
          pq3, cq1, cm, cq3, delta * 100.0, won, pairs, verdict.c_str());
    }
  }
  return regressed ? 1 : 0;
}
