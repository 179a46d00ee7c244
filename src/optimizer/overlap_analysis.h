// Compile-time context-window relationship analysis (Definition 2):
// "context windows of type c1 and c2 are *guaranteed to overlap* if, based
// on the predicates of the respective context deriving queries, it can be
// determined that for each window of type c1 there is a window of type c2
// with w_c1.start within w_c2; if in addition w_c1.end within w_c2 can be
// determined, a window of type c1 is *contained* in a window of type c2."
//
// The analysis extracts, per context, its single initiating and terminating
// deriving query (the model's Query::Opens / Query::Closes rule, shared
// with the analyzer and the plan translator) and their threshold
// predicates (the setting of Fig. 7);
// under the monotone-signal reading the thresholds order the window bounds,
// giving each context an interval in bound space. Contexts whose bounds are
// not analyzable are omitted (callers treat them as unrelated).
//
// The window grouping transform (window_grouping.h) builds on the same
// extraction and clusters windows by Relate.

#ifndef CAESAR_OPTIMIZER_OVERLAP_ANALYSIS_H_
#define CAESAR_OPTIMIZER_OVERLAP_ANALYSIS_H_

#include <string>
#include <vector>

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

// Extracts analyzable bounds for every non-default context that has exactly
// one initiator and one terminator with single-threshold predicates on a
// shared attribute and start < end. Non-analyzable contexts are skipped.
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
