// Streaming statistics utilities: running moments the experiments report
// from.

#ifndef CAESAR_COMMON_STATS_H_
#define CAESAR_COMMON_STATS_H_

#include <cstdint>
#include <limits>
#include <string>

namespace caesar {

// Count / mean / min / max over a stream of doubles in O(1) space.
class RunningStats {
 public:
  void Add(double x) {
    ++count_;
    sum_ += x;
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  void Merge(const RunningStats& other);

  // "count=N mean=M min=L max=H" one-liner for reports.
  std::string ToString() const;

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

 private:
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace caesar

#endif  // CAESAR_COMMON_STATS_H_
