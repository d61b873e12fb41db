//===- serve/Protocol.h - dc_serve wire protocol --------------------------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dc_serve protocol: one JSON object per line in each direction.
///
/// Request envelope:
///
///   {"id": <any json>, "method": "solve"|"health"|"stats"|"reload",
///    "params": {...}}
///
/// The id is echoed verbatim in the response so clients may pipeline
/// requests over one connection. "solve" params:
///
///   {"task": "<corpus task name>"}                 — or —
///   {"name": "...", "request": "list(int) -> int",
///    "examples": [{"inputs": [[1,2]], "output": 3}, ...]}
///
/// plus optional "timeout_ms", "node_budget", "frontier_size" overrides
/// and an optional "domain" string routing the request to one of the
/// server's loaded domains (absent = the default, first-loaded domain).
///
/// "reload" is the admin request behind hot checkpoint swaps: params
/// are an optional "domain" (default = the default domain) plus
/// optional "checkpoint"/"model"/"seed" overrides; unspecified fields
/// keep the domain's current configuration, so `{"method":"reload"}`
/// re-reads the same files from disk (the SIGHUP semantics).
///
/// Responses are {"id":..., "ok":true, "result":{...}} or {"id":...,
/// "ok":false, "error":{"code":..., "message":...}}; the closed set of
/// error codes is documented in DESIGN.md §9 (bad_request, unknown_method,
/// unknown_task, unknown_domain, overloaded, shutting_down, timeout,
/// reload_failed, internal).
///
/// This header also hosts the two format bridges the protocol needs and
/// the core deliberately lacks: a parser for `Type::show()` strings
/// (requests travel as text) and a typed JSON <-> runtime-Value
/// conversion (examples travel as JSON, driven by the request type, so
/// `3` becomes an int under `int` and a real under `real`).
///
//===----------------------------------------------------------------------===//

#ifndef DC_SERVE_PROTOCOL_H
#define DC_SERVE_PROTOCOL_H

#include "core/Task.h"
#include "core/Type.h"
#include "serve/Json.h"

#include <optional>
#include <string>

namespace dc::serve {

/// Protocol error codes (the wire strings). Closed set: clients dispatch
/// on these, so additions are protocol changes.
namespace errc {
inline constexpr const char *BadRequest = "bad_request";
inline constexpr const char *UnknownMethod = "unknown_method";
inline constexpr const char *UnknownTask = "unknown_task";
inline constexpr const char *UnknownDomain = "unknown_domain";
inline constexpr const char *Overloaded = "overloaded";
inline constexpr const char *ShuttingDown = "shutting_down";
inline constexpr const char *Timeout = "timeout";
inline constexpr const char *ReloadFailed = "reload_failed";
inline constexpr const char *Internal = "internal";
} // namespace errc

/// Deepest type parseTypeString() accepts (parenthesized, argument and
/// arrow nesting all count); real requests are a handful of levels deep.
constexpr int MaxTypeDepth = 256;

/// Parses the textual rendering produced by Type::show(): right-
/// associative "->" arrows, parenthesized left-hand arrows, constructor
/// application "list(int)", and type variables "t0", "t1", ... Returns
/// null and sets \p ErrorOut on malformed input, on nesting deeper than
/// MaxTypeDepth, on variable ids above Type::MaxVariableId, and on
/// constructor names no type in the process uses yet; a refused string
/// interns no type.
TypePtr parseTypeString(const std::string &Text,
                        std::string *ErrorOut = nullptr);

/// Converts a JSON value to a runtime Value at the expected \p Type:
/// numbers to int/real, strings to char (length 1) or list(char), arrays
/// element-wise to lists. list(char) accepts either a JSON string or an
/// array of 1-char strings. Returns null and sets \p ErrorOut when the
/// JSON shape does not fit the type (including polymorphic types, which
/// have no data representation).
ValuePtr jsonToValue(const Json &J, const TypePtr &Type,
                     std::string *ErrorOut = nullptr);

/// Renders a runtime Value as JSON: ints/reals/bools naturally, chars as
/// 1-char strings, char lists as strings, other lists as arrays.
/// Callables and opaques (never example data) render as their show()
/// string.
Json valueToJson(const ValuePtr &V);

/// One parsed request envelope.
struct Request {
  Json Id;            ///< echoed verbatim; null when the client sent none
  std::string Method; ///< "solve", "health", "stats", ...
  Json Params;        ///< params object (null when absent)
};

/// Parses one request line. Returns nullopt and sets \p ErrorOut when the
/// line is not a JSON object with a string "method".
std::optional<Request> parseRequestLine(const std::string &Line,
                                        std::string *ErrorOut = nullptr);

/// Parsed "solve" params: exactly one of TaskName (corpus lookup, done by
/// the service) or InlineTask is set.
struct SolveParams {
  std::string TaskName;
  TaskPtr InlineTask;
  std::string Domain;    ///< route to this domain; empty: the default
  long TimeoutMs = -1;   ///< <0: use the server default
  long NodeBudget = 0;   ///< 0: use the server default
  int FrontierSize = 0;  ///< 0: use the server default
};

/// Validates and extracts solve params, building the inline Task (type
/// parse + typed example conversion) when the request carries one.
/// Returns nullopt and sets \p ErrorOut (a bad_request message) on any
/// shape or conversion error.
std::optional<SolveParams> parseSolveParams(const Json &Params,
                                            std::string *ErrorOut = nullptr);

/// Parsed "reload" params. Unset optionals mean "keep the domain's
/// current configuration for this field".
struct ReloadParams {
  std::string Domain; ///< empty: the default domain
  std::optional<std::string> Checkpoint;
  std::optional<std::string> Model;
  std::optional<unsigned> Seed;
};

/// Validates and extracts reload params (params may be absent/null: a
/// bare reload re-reads the default domain's current files). Returns
/// nullopt + \p ErrorOut (a bad_request message) on shape errors.
std::optional<ReloadParams>
parseReloadParams(const Json &Params, std::string *ErrorOut = nullptr);

/// {"id":..., "ok":true, "result":...}
Json makeOkResponse(const Json &Id, Json Result);

/// {"id":..., "ok":false, "error":{"code":..., "message":...}}
Json makeErrorResponse(const Json &Id, const char *Code,
                       const std::string &Message);

} // namespace dc::serve

#endif // DC_SERVE_PROTOCOL_H
