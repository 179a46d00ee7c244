// CSV import/export of event streams.
//
// Streams are exchanged in a simple typed CSV dialect:
//
//   # type: PositionReport
//   # attrs: vid:int, speed:int, xway:int, ...
//   time,vid,speed,xway,...
//   0,103,57,0,...
//
// One file holds events of one type; WriteEventsCsv/ReadEventsCsv round-trip
// losslessly for int/double/string attributes. A multi-type stream is split
// across files by the caller (one per type).

#ifndef CAESAR_IO_CSV_H_
#define CAESAR_IO_CSV_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "event/event.h"
#include "event/schema.h"

namespace caesar {

// Serializes `events` (all of one type) to CSV text.
Result<std::string> WriteEventsCsv(const EventBatch& events,
                                   const TypeRegistry& registry);

// Outcome of a tolerant CSV parse: every row parsed before the first error
// is kept, so a corrupt tail does not discard a good prefix. Error messages
// are prefixed "<stream_name>:<1-based line>:".
struct CsvParseResult {
  EventBatch events;       // rows parsed before the first error (all if ok)
  Status status;           // Ok(), or the first error with its location
  int64_t rows_parsed = 0;  // == events.size()
  int64_t error_line = 0;   // 1-based physical line of the error (0 = none)
};

// Parses CSV text produced by WriteEventsCsv, keeping the partial batch on
// error. `stream_name` labels error messages (e.g. the file path).
CsvParseResult ReadEventsCsvTolerant(const std::string& text,
                                     TypeRegistry* registry,
                                     const std::string& stream_name = "<csv>");

// Parses CSV text produced by WriteEventsCsv. The event type is registered
// in `registry` if absent (with the schema from the header). All-or-nothing
// wrapper over ReadEventsCsvTolerant.
Result<EventBatch> ReadEventsCsv(const std::string& text,
                                 TypeRegistry* registry,
                                 const std::string& stream_name = "<csv>");

// Writes `events` to `path`; all events must share one type.
Status WriteEventsCsvFile(const std::string& path, const EventBatch& events,
                          const TypeRegistry& registry);

// Reads a CSV stream file.
Result<EventBatch> ReadEventsCsvFile(const std::string& path,
                                     TypeRegistry* registry);

}  // namespace caesar

#endif  // CAESAR_IO_CSV_H_
