#pragma once
// Result assembly: named metrics with units, operation counts, and the one
// JSON line the benchmark prints last.

#include <map>
#include <string>
#include <vector>

namespace bench {

[[nodiscard]] std::string json_string(const std::string& s);
/// Shortest round-tripping representation (all digits kept); non-finite
/// values, which JSON cannot carry, become 0.
[[nodiscard]] std::string json_number(double v);

/// 50th percentile by mc::obs::percentile (linear interpolation; 0 for
/// an empty sample), the estimator every reported timing uses.
[[nodiscard]] double median(std::vector<double> v);

constexpr double kMiB = 1024.0 * 1024.0;

/// Operations attempted and failed, plus the reason of every failure.
struct Tally {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;

  /// Count one operation; false `ok` records it as failed with `what`.
  void check(bool ok, const std::string& what);
};

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  [[nodiscard]] std::string result_json(const Tally& tally) const;
  /// {"name": {"value": v, "unit": u}, ...}
  [[nodiscard]] std::string metrics_json() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
};

}  // namespace bench
