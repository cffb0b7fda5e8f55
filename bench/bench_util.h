#ifndef SPOT_BENCH_BENCH_UTIL_H_
#define SPOT_BENCH_BENCH_UTIL_H_

// Shared helpers for the experiment binaries (bench/bench_e*.cc). Each
// binary reproduces one table/figure from DESIGN.md Section 6 and prints it
// via eval::Table so EXPERIMENTS.md can quote the rows verbatim.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "core/spot_config.h"
#include "eval/presets.h"
#include "eval/table.h"
#include "stream/data_point.h"
#include "stream/synthetic.h"

namespace spot {
namespace bench {

/// Machine-readable result emission for the experiment binaries.
///
/// Every bench accepts `--json out.json` (or `--json=out.json`); when
/// given, the tables it prints are ALSO written as one JSON document
///
///     {"schema": "spot-bench-v1", "bench": "<binary name>",
///      "tables": [{"title": ..., "headers": [...], "rows": [[...]]}],
///      "counters": {"cpu_ns/pt": 2114.6, ...}}      // when any were set
///
/// so the perf trajectory can be tracked across PRs by diffing artifacts
/// instead of scraping stdout. Cells are emitted as the exact strings the
/// ASCII table shows (they are already formatted numbers), keeping the two
/// outputs trivially consistent.
///
/// Usage: construct from (argc, argv), route every table through
/// Print(table, title) instead of table.Print(title), and let the
/// destructor write the file.
class JsonReporter {
 public:
  JsonReporter(int argc, char** argv, const std::string& bench_name)
      : bench_name_(bench_name) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json" && i + 1 < argc) {
        path_ = argv[++i];
      } else if (arg.rfind("--json=", 0) == 0) {
        path_ = arg.substr(sizeof("--json=") - 1);
      }
    }
  }

  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

  ~JsonReporter() {
    if (path_.empty()) return;
    std::ofstream out(path_, std::ios::trunc);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot write JSON results to %s\n",
                   path_.c_str());
      return;
    }
    out << json_doc();
  }

  /// Prints the table to stdout (exactly as Table::Print) and records it
  /// for the JSON document.
  void Print(const eval::Table& table, const std::string& title) {
    table.Print(title);
    titles_.push_back(title);
    tables_.push_back(table);
  }

  /// Records one scalar into the document's `counters` block (profiling
  /// rates like the process stage's CPU ns per point ride here — named
  /// scalars, not table cells, so downstream tooling reads them without
  /// knowing any table's shape). Last write per name wins.
  void SetCounter(const std::string& name, double value) {
    for (auto& [n, v] : counters_) {
      if (n == name) {
        v = value;
        return;
      }
    }
    counters_.emplace_back(name, value);
  }

  /// The assembled JSON document (exposed for tests; the destructor writes
  /// it to the `--json` path).
  std::string json_doc() const {
    std::string doc = "{\"schema\": \"spot-bench-v1\", \"bench\": " +
                      Quote(bench_name_) + ", \"tables\": [";
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      if (t > 0) doc += ", ";
      doc += "{\"title\": " + Quote(titles_[t]) + ", \"headers\": ";
      doc += CellList(tables_[t].headers());
      doc += ", \"rows\": [";
      const auto& rows = tables_[t].rows();
      for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i > 0) doc += ", ";
        doc += CellList(rows[i]);
      }
      doc += "]}";
    }
    doc += "]";
    if (!counters_.empty()) {
      doc += ", \"counters\": {";
      for (std::size_t i = 0; i < counters_.size(); ++i) {
        if (i > 0) doc += ", ";
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", counters_[i].second);
        doc += Quote(counters_[i].first) + ": " + buf;
      }
      doc += "}";
    }
    doc += "}\n";
    return doc;
  }

  bool enabled() const { return !path_.empty(); }

 private:
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += "\"";
    return out;
  }

  static std::string CellList(const std::vector<std::string>& cells) {
    std::string out = "[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quote(cells[i]);
    }
    out += "]";
    return out;
  }

  std::string bench_name_;
  std::string path_;
  std::vector<std::string> titles_;
  std::vector<eval::Table> tables_;
  /// Insertion-ordered named scalars for the `counters` block.
  std::vector<std::pair<std::string, double>> counters_;
};

/// The shared experiment configuration (see src/eval/presets.h — one
/// definition serves benches and tests so the setups cannot drift apart).
using eval::ExperimentConfig;

/// Training batch of `n` normal points from a `dims`-dimensional Gaussian
/// stream. `concept_seed` fixes the cluster layout so the evaluation stream can
/// be drawn from the same concept with a different sampling seed.
inline std::vector<std::vector<double>> MakeTraining(int dims, int n,
                                                     std::uint64_t concept_seed,
                                                     std::uint64_t seed = 1) {
  stream::SyntheticConfig scfg;
  scfg.dimension = dims;
  scfg.outlier_probability = 0.0;
  scfg.concept_seed = concept_seed;
  scfg.seed = seed;
  stream::GaussianStream gen(scfg);
  return ValuesOf(Take(gen, static_cast<std::size_t>(n)));
}

/// Labeled evaluation stream with planted projected outliers, drawn from
/// the concept fixed by `concept_seed`.
inline std::vector<LabeledPoint> MakeEvalStream(int dims, int n,
                                                double outlier_prob,
                                                std::uint64_t concept_seed,
                                                std::uint64_t seed = 2,
                                                int max_subspace_dim = 2) {
  stream::SyntheticConfig scfg;
  scfg.dimension = dims;
  scfg.outlier_probability = outlier_prob;
  scfg.max_outlier_subspace_dim = max_subspace_dim;
  scfg.concept_seed = concept_seed;
  scfg.seed = seed;
  stream::GaussianStream gen(scfg);
  return Take(gen, static_cast<std::size_t>(n));
}

}  // namespace bench
}  // namespace spot

#endif  // SPOT_BENCH_BENCH_UTIL_H_
