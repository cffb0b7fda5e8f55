#include "obs/exposition.h"

#include <cinttypes>
#include <cstdio>
#include <map>

namespace spot {
namespace obs {
namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Registry keys may embed label pairs in the metric name itself —
/// `perf_cpu_ns{stage="decode"}` — which lets a label-less Registry carry
/// labeled families through every scrape surface unchanged (DESIGN.md
/// Section 12). Splits such a key into its family base name and the
/// embedded label string (empty for plain names).
void SplitEmbeddedLabels(const std::string& name, std::string* base,
                         std::string* embedded) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    *base = name;
    embedded->clear();
    return;
  }
  *base = name.substr(0, brace);
  *embedded = name.substr(brace + 1, name.size() - brace - 2);
}

/// Section label first (reactor=/shard=/session=), embedded pairs after.
std::string MergeLabels(const std::string& section,
                        const std::string& embedded) {
  if (section.empty()) return embedded;
  if (embedded.empty()) return section;
  return section + "," + embedded;
}

void AppendSeries(const std::string& name, const std::string& labels,
                  const std::string& value, std::string* out) {
  out->append("spot_").append(name);
  if (!labels.empty()) out->append("{").append(labels).append("}");
  out->append(" ").append(value).append("\n");
}

std::string WithLe(const std::string& labels, const std::string& le) {
  std::string merged = labels;
  if (!merged.empty()) merged.append(",");
  merged.append("le=\"").append(le).append("\"");
  return merged;
}

/// A family's series across every section, in section order (embedded
/// variants of one section follow the section's own map order).
template <typename Value>
using Family = std::map<std::string, std::vector<std::pair<std::string,
                                                           Value>>>;

template <typename Value, typename Map>
void Collect(const std::string& section, const Map& series, Family<Value>* out) {
  std::string base, embedded;
  for (const auto& [name, value] : series) {
    SplitEmbeddedLabels(name, &base, &embedded);
    (*out)[base].emplace_back(MergeLabels(section, embedded), value);
  }
}

}  // namespace

std::string RenderPrometheus(const std::vector<LabeledSnapshot>& sections) {
  std::string out;
  // Group by family base name so each family gets exactly one TYPE line,
  // however many sections — or embedded label variants — carry it.
  Family<std::uint64_t> counters;
  Family<double> gauges;
  Family<const Histogram*> hists;
  for (const auto& [labels, snap] : sections) {
    Collect(labels, snap.counters, &counters);
    Collect(labels, snap.gauges, &gauges);
    std::string base, embedded;
    for (const auto& [name, h] : snap.histograms) {
      SplitEmbeddedLabels(name, &base, &embedded);
      hists[base].emplace_back(MergeLabels(labels, embedded), &h);
    }
  }

  for (const auto& [name, series] : counters) {
    out.append("# TYPE spot_").append(name).append(" counter\n");
    for (const auto& [labels, value] : series) {
      AppendSeries(name, labels, std::to_string(value), &out);
    }
  }
  for (const auto& [name, series] : gauges) {
    out.append("# TYPE spot_").append(name).append(" gauge\n");
    for (const auto& [labels, value] : series) {
      AppendSeries(name, labels, FormatDouble(value), &out);
    }
  }
  for (const auto& [name, series] : hists) {
    out.append("# TYPE spot_").append(name).append(" histogram\n");
    for (const auto& [labels, hp] : series) {
      const Histogram& h = *hp;
      int top = -1;
      for (int i = 0; i < Histogram::kNumBuckets; ++i) {
        if (h.bucket(i) != 0) top = i;
      }
      std::uint64_t cum = 0;
      for (int i = 0; i <= top && i < Histogram::kNumBuckets - 1; ++i) {
        cum += h.bucket(i);
        AppendSeries(
            name + "_bucket",
            WithLe(labels, FormatDouble(Histogram::BucketUpperBound(i))),
            std::to_string(cum), &out);
      }
      AppendSeries(name + "_bucket", WithLe(labels, "+Inf"),
                   std::to_string(h.count()), &out);
      AppendSeries(name + "_sum", labels, FormatDouble(h.sum()), &out);
      AppendSeries(name + "_count", labels, std::to_string(h.count()), &out);
    }
  }
  return out;
}

std::string SummaryLine(const MetricsSnapshot& snap) {
  std::string out;
  auto sep = [&out] {
    if (!out.empty()) out.append(" ");
  };
  for (const auto& [name, v] : snap.counters) {
    sep();
    out.append(name).append("=").append(std::to_string(v));
  }
  for (const auto& [name, v] : snap.gauges) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s=%.6g", name.c_str(), v);
    sep();
    out.append(buf);
  }
  for (const auto& [name, h] : snap.histograms) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "%s=%" PRIu64 "/%.4g/%.4g/%.4g", name.c_str(), h.count(),
                  h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99));
    sep();
    out.append(buf);
  }
  return out;
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace obs
}  // namespace spot
