#include "common/stats.h"

#include <algorithm>
#include <sstream>

namespace caesar {

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::string RunningStats::ToString() const {
  std::ostringstream os;
  os << "count=" << count() << " mean=" << mean() << " min=" << min()
     << " max=" << max();
  return os.str();
}

}  // namespace caesar
