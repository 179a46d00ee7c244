// The caesard request/response protocol, carried as JSON documents over
// either wire framing (server/wire.h).
//
// Requests are objects with a "cmd" field:
//
//   {"cmd":"ping"}                       protocol version, workers, tenants
//   {"cmd":"register","tenant":"t1","model":"TYPE ...; QUERY ...;",
//    "options":{"ingest":"reorder","reorder_slack":3,
//    "metrics":"operator","gather_statistics":true}}
//   {"cmd":"ingest","tenant":"t1","events":[["Tick",3,[1,7,0]], ...]}
//                                        run what is now complete
//   {"cmd":"flush","tenant":"t1"}        run everything incl. the open tick
//   {"cmd":"stats","tenant":"t1","format":"json"|"prometheus",
//    "deterministic":true}
//   {"cmd":"teardown","tenant":"t1"}     flush, report, destroy
//   {"cmd":"list"}
//   {"cmd":"shutdown"}
//
// ingest, flush and teardown reply with the "derived" rows of the ticks
// they ran; nothing derived is held back for a later request.
//
// Responses always carry "ok". Failures add "code" — a stable I4xx
// diagnostic code (analysis/diagnostics.h; I420 backpressure, I421 unknown
// tenant, I422 duplicate tenant, I423 bad frame/request, I424 admission
// rejected) — and "error", a human message. Clients match on the code.
//
// Event rows are arrays:
//
//   [type_name, time, [values...]]                  point event
//   [type_name, start_time, end_time, [values...]]  interval event
//
// Values are JSON ints, doubles, strings, or null, positionally matching
// the type's schema. A row whose type name the tenant's registry does not
// know still decodes — to an out-of-range TypeId — so the *engine's*
// ingest policy classifies it (kUnknownType quarantine), exactly as it
// would an in-process event with a corrupt type id. This keeps a tenant
// fed garbage byte-identical, counters included, to a library run fed the
// same garbage.

#ifndef CAESAR_SERVER_PROTOCOL_H_
#define CAESAR_SERVER_PROTOCOL_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "event/event.h"
#include "event/schema.h"
#include "server/wire.h"

namespace caesar {

// Protocol revision, echoed by ping. 2: poll is gone, every drain's rows
// ride the reply of the request that ran it. 3: register's "ingest" is
// "strict" or "reorder" (the old drop policy is "reorder" with the default
// slack 0), and a slack under "strict" is rejected.
inline constexpr int kServerProtocolVersion = 3;

enum class ServerCmd : int8_t {
  kPing = 0,
  kRegister,
  kIngest,
  kFlush,
  kStats,
  kTeardown,
  kList,
  kShutdown,
};

const char* ServerCmdName(ServerCmd cmd);
// Parses a cmd string; false on anything unknown.
bool ParseServerCmd(std::string_view name, ServerCmd* out);

// --- Event row codec -------------------------------------------------------

// Renders one event as a wire row. Events with an out-of-range type id
// (quarantined garbage) render with the reserved name "__unknown__".
JsonValue EncodeEventRow(const Event& event, const TypeRegistry& registry);

// Renders a whole batch as a JSON array of rows.
JsonValue EncodeEventBatch(const EventBatch& events,
                           const TypeRegistry& registry);

// Decodes one wire row against `registry`. Structurally broken rows (not
// an array, non-numeric time, bad value kinds) fail with a Status; an
// unknown type name succeeds with an out-of-range type id (see header
// comment).
Status DecodeEventRow(const JsonValue& row, const TypeRegistry& registry,
                      EventPtr* out);

// --- Response helpers ------------------------------------------------------

// {"ok":true} with room for more fields.
JsonValue OkResponse();

// {"ok":false,"code":code,"error":message}.
JsonValue ErrorResponse(const char* code, const std::string& message);

}  // namespace caesar

#endif  // CAESAR_SERVER_PROTOCOL_H_
