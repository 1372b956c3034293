// NDJSON front end for the job service.
//
// One request per line, one response per line — flat JSON objects only, so
// the wire format stays greppable and the parser stays a page long. The
// same handler backs both transports (`s35 serve` on stdin/stdout, and a
// Unix-domain socket for out-of-process clients) and both execution planes
// (the in-process JobService and the supervised worker plane) through the
// JobBackend interface; see docs/SERVICE.md for the full protocol
// reference.
//
//   {"op":"submit","kernel":"7pt","n":64,"steps":8,"priority":1}
//   {"ok":true,"id":1}
//   {"op":"wait","id":1}
//   {"ok":true,"id":1,"state":"done","crc":"a1b2c3d4",...}
//
// Input hardening: requests are bounded (json::kMaxRequestBytes per line,
// json::kMaxStringField per string value); malformed or oversized input
// yields a typed {"ok":false,"error":"protocol_error",...} — and, on the
// socket transport, closes only the offending client's connection.
#pragma once

#include <atomic>
#include <iosfwd>
#include <string>

#include "service/backend.h"

namespace s35::service {

// Handles one request line and returns one response line (no newline).
// Malformed input yields {"ok":false,...} — the connection survives.
// `*shutdown` is set when the request was {"op":"shutdown"}.
std::string handle_line(JobBackend& svc, const std::string& line, bool* shutdown);

// Reads NDJSON requests from `in` until EOF or a shutdown op, writing one
// response line each. Returns the number of requests handled.
long serve_stream(JobBackend& svc, std::istream& in, std::ostream& out);

// Unix-domain socket transport: binds `path` and multiplexes every
// connected client over one poll loop — a slow, stalled, or dead client
// cannot delay another client's submits or waits. Parked `wait`/`drain`
// requests resolve when the backend's terminal_fd() fires or their own
// timeout_ms passes; the loop is that fd's single consumer. A client that
// half-closes (SHUT_WR) is answered before its connection closes.
// Oversized request lines (beyond json::kMaxRequestBytes) get a
// protocol_error response and the offending connection is closed. Runs
// until a shutdown op, or until `*stop` becomes true (checked at least
// every 200 ms; `s35 serve` points it at its SIGTERM flag for graceful
// drain). Returns 0 on clean shutdown, nonzero on transport errors or
// non-POSIX builds.
int serve_unix(JobBackend& svc, const std::string& path,
               const std::atomic<bool>* stop = nullptr);

}  // namespace s35::service
