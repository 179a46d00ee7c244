// Compile-time context-window relationship analysis (Definition 2):
// "context windows of type c1 and c2 are *guaranteed to overlap* if, based
// on the predicates of the respective context deriving queries, it can be
// determined that for each window of type c1 there is a window of type c2
// with w_c1.start within w_c2; if in addition w_c1.end within w_c2 can be
// determined, a window of type c1 is *contained* in a window of type c2."
//
// Per context, the analysis reads the single query that opens and the one
// that closes it (Query::Opens / Query::Closes) and their threshold
// predicates (Fig. 7). Under the monotone-rising-signal reading, rising
// crossings (`=`, `>`, `>=`) of one attribute order the bounds, giving
// each context an interval in bound space. Other contexts are omitted
// (callers treat them as unrelated); the analyzer explains each omission
// from the same WindowShape (W203 / W204).
//
// The window grouping transform (window_grouping.h) builds on the same
// extraction and clusters windows by Relate.

#ifndef CAESAR_OPTIMIZER_OVERLAP_ANALYSIS_H_
#define CAESAR_OPTIMIZER_OVERLAP_ANALYSIS_H_

#include <optional>
#include <string>
#include <vector>

#include "expr/analysis.h"
#include "query/model.h"

namespace caesar {

// Analyzable bounds of one context's windows.
struct WindowBounds {
  std::string context;
  int initiator_query = -1;   // the query that Opens the context
  int terminator_query = -1;  // the query that Closes it
  double start_key = 0.0;     // threshold of the initiating predicate
  double end_key = 0.0;       // threshold of the terminating predicate
  std::string bound_attr;     // "var.attr" the thresholds share
};

// How one context's windows are bounded.
struct WindowShape {
  std::vector<int> initiators;   // queries that Open the context
  std::vector<int> terminators;  // queries that Close it
  // With one of each: their SingleThresholdConstraint, if any.
  std::optional<AttrConstraint> start;
  std::optional<AttrConstraint> end;

  // Both are rising crossings (IsRisingCrossing) of one attribute:
  // analyzable when start < end, inverted otherwise.
  bool Rising() const;
};

WindowShape ShapeOfWindows(const CaesarModel& model,
                           const std::string& context);

// Extracts the bounds of every non-default context whose shape is Rising
// with start < end. Other contexts are skipped.
std::vector<WindowBounds> ExtractWindowBounds(const CaesarModel& model);

// Relationship between two analyzable windows (Definition 2).
enum class WindowRelation {
  kUnknown,      // different bound attributes: not comparable
  kDisjoint,     // the windows never coexist
  kOverlaps,     // guaranteed overlap, neither contains the other
  kContains,     // every window of `b` lies within a window of `a`
  kContainedIn,  // every window of `a` lies within a window of `b`
  kEqual,        // identical bounds
};

// Two windows are guaranteed to overlap iff the relation is neither
// kUnknown nor kDisjoint; window grouping (window_grouping.h) clusters on
// exactly that test.
WindowRelation Relate(const WindowBounds& a, const WindowBounds& b);

}  // namespace caesar

#endif  // CAESAR_OPTIMIZER_OVERLAP_ANALYSIS_H_
