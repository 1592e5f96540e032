//===- obs/introspect/http_server.h - Minimal HTTP/1.1 ---------*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Just enough HTTP/1.1 for the live-introspection endpoints (DESIGN.md
/// §4d): GET and HEAD, one request per connection, 400 on malformed
/// input. POSIX sockets only; no third-party library, per the repo's
/// no-new-dependencies rule.
///
/// http_server.cpp holds the request parser and the socket side of
/// IntrospectServer: one thread accepts a connection, reads one request
/// head of at most 64 KiB, answers it with `Connection: close` and closes
/// — every client (`curl`, Prometheus, the tests) sends one request per
/// connection. Reads and writes block with a fixed 1 s timeout, so a
/// client that connects and stalls holds the server for at most that
/// long. No TLS, no request bodies, no keep-alive.
///
/// parseHttpRequest() is exposed separately so the unit tests can feed it
/// malformed byte strings without a socket in sight.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_OBS_INTROSPECT_HTTP_SERVER_H
#define GILLIAN_OBS_INTROSPECT_HTTP_SERVER_H

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gillian::obs {

/// One parsed request line + headers. Bodies are not supported (GET-only
/// protocol); a Content-Length > 0 is treated as malformed.
struct HttpRequest {
  std::string Method;  ///< e.g. "GET"
  std::string Target;  ///< path without query string, e.g. "/metrics"
  std::string Query;   ///< query string without '?', may be empty
  std::string Version; ///< e.g. "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> Headers; ///< lower-case keys

  /// First value of header \p Key (lower-case), or "" if absent.
  std::string_view header(std::string_view Key) const;
};

/// Parses one complete request (request line + headers + terminating
/// CRLFCRLF) from \p Raw. Returns false on any malformed input: missing
/// request-line fields, non-HTTP version token, header line without a
/// colon, embedded NUL, or a body (Content-Length / Transfer-Encoding).
/// Tolerates bare-LF line endings (curl never sends them, humans with
/// netcat do).
bool parseHttpRequest(std::string_view Raw, HttpRequest &Out);

/// A response a route fills in; the server adds the status line and the
/// Content-Type, Content-Length and `Connection: close` headers.
struct HttpResponse {
  int Status = 200;
  std::string ContentType = "text/plain; charset=utf-8";
  std::string Body;
};

} // namespace gillian::obs

#endif // GILLIAN_OBS_INTROSPECT_HTTP_SERVER_H
