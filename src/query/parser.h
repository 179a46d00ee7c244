// Parser for the textual CAESAR query language (Fig. 4 of the paper), with
// small concrete-syntax additions needed to write whole models in one file:
//
//   CONTEXTS clear, congestion, accident DEFAULT clear;
//   PARTITION BY xway, dir, seg;
//
//   QUERY toll_notification
//   DERIVE TollNotification(p.vid AS vid, p.sec AS sec, 5 AS toll)
//   PATTERN NewTravelingCar p
//   CONTEXT congestion;
//
//   QUERY accident_detected
//   INITIATE CONTEXT accident
//   PATTERN SEQ(StoppedCar s1, StoppedCar s2)
//   WHERE s1.pos = s2.pos AND s1.vid != s2.vid
//   CONTEXT clear, congestion;
//
// Queries and declarations are ';'-terminated. Clause keywords are
// case-insensitive. The CONTEXT clause may be omitted (the model implies the
// default context; see CaesarModel::Normalize).
//
// Standalone model files may declare their input event schemas inline so
// linting needs no host program:
//
//   TYPE PositionReport(vid int, speed int, xway int);
//
// Error messages follow the "<source>:<line>:<col>: " prefix convention of
// the tolerant CSV reader; parsed queries carry source spans for the
// analyzer (see analysis/diagnostics.h).

#ifndef CAESAR_QUERY_PARSER_H_
#define CAESAR_QUERY_PARSER_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "event/schema.h"
#include "query/model.h"

namespace caesar {

struct ParseModelOptions {
  // Names the source in error prefixes and diagnostic spans.
  std::string source_name = "<model>";

  // Strict (the default): structural defects (CaesarModel::
  // StructuralDiagnostics) and context-graph errors (unreachable contexts
  // C001, self-loop switches C002) reject the parse with a coded,
  // source-prefixed diagnostic. Lenient: the model is returned normalized
  // as far as it resolves, so the analyzer can report every defect
  // (analysis/).
  bool strict = true;
};

// Parses a complete model (type/context declarations plus queries) and
// normalizes it. `registry` must outlive the returned model; inline TYPE
// declarations are registered into it.
Result<CaesarModel> ParseModel(std::string_view text, TypeRegistry* registry);
Result<CaesarModel> ParseModel(std::string_view text, TypeRegistry* registry,
                               const ParseModelOptions& options);

// Parses a single query (without the trailing ';').
Result<Query> ParseQuery(std::string_view text);

}  // namespace caesar

#endif  // CAESAR_QUERY_PARSER_H_
