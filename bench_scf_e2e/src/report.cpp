#include "report.hpp"

#include <cmath>
#include <cstdio>

#include "obs/metrics.hpp"

namespace bench {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double median(std::vector<double> v) {
  return mc::obs::percentile(std::move(v), 50.0);
}

void Tally::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

std::string Report::metrics_json() const {
  std::string out = "{";
  for (const auto& [name, v] : metrics_) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(v.value) +
           ", \"unit\": " + json_string(v.unit) + "}";
  }
  return out + "}";
}

std::string Report::result_json(const Tally& tally) const {
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(tally.attempted) +
         ", \"failed\": " + std::to_string(tally.failed) +
         ", \"metrics\": " + metrics_json() + "}";
}

}  // namespace bench
