#include "common/metrics.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <variant>

namespace aurora {

HistogramSummary HistogramSummary::Of(const Histogram& h) {
  HistogramSummary s;
  s.count = h.count();
  s.mean = h.mean();
  s.min = h.min();
  s.max = h.max();
  s.p50 = h.P50();
  s.p95 = h.P95();
  s.p99 = h.P99();
  return s;
}

MetricsSnapshot MetricsSnapshot::Diff(const MetricsSnapshot& base) const {
  MetricsSnapshot out;
  for (const auto& [name, value] : counters) {
    auto it = base.counters.find(name);
    uint64_t before = it == base.counters.end() ? 0 : it->second;
    out.counters[name] = value >= before ? value - before : 0;
  }
  out.gauges = gauges;
  for (const auto& [name, summary] : histograms) {
    HistogramSummary s = summary;
    auto it = base.histograms.find(name);
    if (it != base.histograms.end() && s.count >= it->second.count) {
      s.count -= it->second.count;
    }
    out.histograms[name] = s;
  }
  return out;
}

void MetricsSnapshot::MergeWithPrefix(const std::string& prefix,
                                      const MetricsSnapshot& other) {
  const std::string p = prefix.empty() ? "" : prefix + ".";
  for (const auto& [name, value] : other.counters) counters[p + name] = value;
  for (const auto& [name, value] : other.gauges) gauges[p + name] = value;
  for (const auto& [name, value] : other.histograms) {
    histograms[p + name] = value;
  }
}

namespace json {

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  // Integral doubles print without a fraction so counters stay integers.
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace json

namespace {

/// Tree node for the hierarchical JSON emitter. A node is either an object
/// (children) or a leaf value; a name that is both a leaf and a prefix of
/// deeper names keeps its leaf under the reserved child key "_".
struct JsonNode {
  std::variant<std::monostate, uint64_t, double, HistogramSummary> leaf;
  std::map<std::string, std::unique_ptr<JsonNode>> children;
};

JsonNode* Descend(JsonNode* root, const std::string& dotted) {
  JsonNode* node = root;
  size_t start = 0;
  while (true) {
    size_t dot = dotted.find('.', start);
    std::string part = dotted.substr(start, dot - start);
    if (part.empty()) part = "_";
    auto& child = node->children[part];
    if (!child) child = std::make_unique<JsonNode>();
    node = child.get();
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  if (!std::holds_alternative<std::monostate>(node->leaf) ||
      !node->children.empty()) {
    // Name collision (leaf vs prefix, or duplicate across kinds): park the
    // value one level down so both survive.
    auto& child = node->children["_"];
    if (!child) child = std::make_unique<JsonNode>();
    node = child.get();
  }
  return node;
}

void EmitHistogram(const HistogramSummary& h, std::string* out) {
  *out += "{\"count\":" + json::Number(static_cast<double>(h.count));
  *out += ",\"mean\":" + json::Number(h.mean);
  *out += ",\"min\":" + json::Number(static_cast<double>(h.min));
  *out += ",\"max\":" + json::Number(static_cast<double>(h.max));
  *out += ",\"p50\":" + json::Number(static_cast<double>(h.p50));
  *out += ",\"p95\":" + json::Number(static_cast<double>(h.p95));
  *out += ",\"p99\":" + json::Number(static_cast<double>(h.p99));
  *out += "}";
}

void EmitNode(const JsonNode& node, std::string* out) {
  if (node.children.empty()) {
    if (const auto* c = std::get_if<uint64_t>(&node.leaf)) {
      *out += json::Number(static_cast<double>(*c));
    } else if (const auto* g = std::get_if<double>(&node.leaf)) {
      *out += json::Number(*g);
    } else if (const auto* h = std::get_if<HistogramSummary>(&node.leaf)) {
      EmitHistogram(*h, out);
    } else {
      *out += "null";
    }
    return;
  }
  *out += "{";
  bool first = true;
  for (const auto& [key, child] : node.children) {
    if (!first) *out += ",";
    first = false;
    *out += "\"" + json::Escape(key) + "\":";
    EmitNode(*child, out);
  }
  *out += "}";
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  JsonNode root;
  for (const auto& [name, value] : counters) {
    Descend(&root, name)->leaf = value;
  }
  for (const auto& [name, value] : gauges) {
    Descend(&root, name)->leaf = value;
  }
  for (const auto& [name, value] : histograms) {
    Descend(&root, name)->leaf = value;
  }
  std::string out;
  if (root.children.empty()) return "{}";
  EmitNode(root, &out);
  return out;
}

void MetricsRegistry::RegisterCounter(const std::string& name, CounterFn fn) {
  MutexLock lock(&mu_);
  counters_[name] = std::move(fn);
}

void MetricsRegistry::RegisterGauge(const std::string& name, GaugeFn fn) {
  MutexLock lock(&mu_);
  gauges_[name] = std::move(fn);
}

void MetricsRegistry::RegisterHistogram(const std::string& name,
                                        HistogramFn fn) {
  MutexLock lock(&mu_);
  histograms_[name] = std::move(fn);
}

void MetricsRegistry::RegisterHistogram(const std::string& name,
                                        const Histogram* h) {
  MutexLock lock(&mu_);
  histograms_[name] = [h] { return h; };
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(&mu_);
  MetricsSnapshot snap;
  for (const auto& [name, fn] : counters_) snap.counters[name] = fn();
  for (const auto& [name, fn] : gauges_) snap.gauges[name] = fn();
  for (const auto& [name, fn] : histograms_) {
    const Histogram* h = fn();
    if (h != nullptr) snap.histograms[name] = HistogramSummary::Of(*h);
  }
  return snap;
}

}  // namespace aurora
