//===- obs/introspect/http_server.cpp -------------------------------------===//

#include "obs/introspect/http_server.h"
#include "obs/introspect/introspect_server.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

using namespace gillian::obs;

namespace {

/// Read and write timeout of one connection: a client that connects and
/// stalls holds the serving thread for at most about this long.
constexpr time_t IoTimeoutSec = 1;
/// Nobody sends 64 KiB of GET; a longer head drops the connection.
constexpr size_t MaxHeadBytes = 64 * 1024;

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string toLower(std::string_view S) {
  std::string Out(S);
  std::transform(Out.begin(), Out.end(), Out.begin(), [](unsigned char C) {
    return static_cast<char>(std::tolower(C));
  });
  return Out;
}

std::string_view trim(std::string_view S) {
  while (!S.empty() && (S.front() == ' ' || S.front() == '\t'))
    S.remove_prefix(1);
  while (!S.empty() && (S.back() == ' ' || S.back() == '\t' ||
                        S.back() == '\r'))
    S.remove_suffix(1);
  return S;
}

const char *statusText(int Status) {
  switch (Status) {
  case 200: return "OK";
  case 400: return "Bad Request";
  case 404: return "Not Found";
  case 405: return "Method Not Allowed";
  default: return "Error";
  }
}

} // namespace

std::string_view HttpRequest::header(std::string_view Key) const {
  for (const auto &[K, V] : Headers)
    if (K == Key)
      return V;
  return {};
}

bool gillian::obs::parseHttpRequest(std::string_view Raw, HttpRequest &Out) {
  Out = HttpRequest();
  if (Raw.find('\0') != std::string_view::npos)
    return false;

  // Request line.
  size_t LineEnd = Raw.find('\n');
  if (LineEnd == std::string_view::npos)
    return false;
  std::string_view Line = trim(Raw.substr(0, LineEnd));
  size_t Sp1 = Line.find(' ');
  if (Sp1 == std::string_view::npos || Sp1 == 0)
    return false;
  size_t Sp2 = Line.rfind(' ');
  if (Sp2 == Sp1) // only two tokens
    return false;
  Out.Method = std::string(Line.substr(0, Sp1));
  std::string_view Target = trim(Line.substr(Sp1 + 1, Sp2 - Sp1 - 1));
  Out.Version = std::string(trim(Line.substr(Sp2 + 1)));
  if (Target.empty() || Target.find(' ') != std::string_view::npos)
    return false;
  if (Out.Version.rfind("HTTP/", 0) != 0)
    return false;
  size_t Q = Target.find('?');
  if (Q == std::string_view::npos) {
    Out.Target = std::string(Target);
  } else {
    Out.Target = std::string(Target.substr(0, Q));
    Out.Query = std::string(Target.substr(Q + 1));
  }

  // Headers until the blank line.
  size_t Pos = LineEnd + 1;
  bool SawEnd = false;
  while (Pos < Raw.size()) {
    size_t End = Raw.find('\n', Pos);
    if (End == std::string_view::npos)
      return false; // terminating blank line never arrived
    std::string_view H = Raw.substr(Pos, End - Pos);
    Pos = End + 1;
    if (trim(H).empty()) {
      SawEnd = true;
      break; // end of headers
    }
    size_t Colon = H.find(':');
    if (Colon == std::string_view::npos || Colon == 0)
      return false;
    std::string Key = toLower(trim(H.substr(0, Colon)));
    if (Key.find(' ') != std::string::npos)
      return false; // "Bad Header : x" — obs-fold / smuggling shapes
    Out.Headers.emplace_back(std::move(Key),
                             std::string(trim(H.substr(Colon + 1))));
  }
  if (!SawEnd)
    return false;

  // No bodies in this protocol: a request advertising one is malformed.
  std::string_view CL = Out.header("content-length");
  if (!CL.empty() && CL != "0")
    return false;
  if (!Out.header("transfer-encoding").empty())
    return false;

  return true;
}

uint16_t IntrospectServer::start(const std::string &Host, uint16_t Port) {
  if (running())
    return 0;

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1)
    return 0;

  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return 0;
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  // Recover the actually-bound port (Port may have been 0 = ephemeral).
  sockaddr_in Bound{};
  socklen_t Len = sizeof(Bound);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(Fd, 16) != 0 ||
      ::getsockname(Fd, reinterpret_cast<sockaddr *>(&Bound), &Len) != 0) {
    ::close(Fd);
    return 0;
  }

  ListenFd = Fd;
  BoundPort = ntohs(Bound.sin_port);
  Served.store(0, std::memory_order_relaxed);
  LastRequestNs.store(0, std::memory_order_relaxed);
  Running.store(true, std::memory_order_release);
  Thread = std::thread([this] { serveLoop(); });
  return BoundPort;
}

void IntrospectServer::stop() {
  if (!Running.exchange(false, std::memory_order_acq_rel))
    return;
  ::shutdown(ListenFd, SHUT_RDWR); // fails the blocked accept()
  Thread.join();
  ::close(ListenFd);
  ListenFd = -1;
  BoundPort = 0;
}

void IntrospectServer::serveLoop() {
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd >= 0)
      serveConnection(Fd);
    else if (errno != EINTR && errno != ECONNABORTED)
      return; // stop() shut the listener down
  }
}

void IntrospectServer::serveConnection(int Fd) {
  timeval Timeout{IoTimeoutSec, 0};
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Timeout, sizeof(Timeout));
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(IoTimeoutSec);

  // Read up to the blank line ending the head (bare-LF tolerant); the
  // parser ignores whatever follows it. A peer that closes, stalls past
  // the deadline or sends an oversized head gets no answer.
  std::string Head;
  while (Head.find("\r\n\r\n") == std::string::npos &&
         Head.find("\n\n") == std::string::npos) {
    char Buf[4096];
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0 || Head.size() + static_cast<size_t>(N) > MaxHeadBytes ||
        std::chrono::steady_clock::now() > Deadline) {
      ::close(Fd);
      return;
    }
    Head.append(Buf, static_cast<size_t>(N));
  }

  HttpRequest Req;
  HttpResponse Resp;
  if (!parseHttpRequest(Head, Req)) {
    Resp.Status = 400;
    Resp.Body = "bad request\n";
  } else if (Req.Method != "GET" && Req.Method != "HEAD") {
    Resp.Status = 405;
    Resp.Body = "method not allowed\n";
  } else {
    Resp = route(Req);
    if (Req.Method == "HEAD")
      Resp.Body.clear();
  }
  Served.fetch_add(1, std::memory_order_relaxed);
  LastRequestNs.store(nowNs(), std::memory_order_relaxed);

  std::string Out = "HTTP/1.1 " + std::to_string(Resp.Status) + " " +
                    statusText(Resp.Status) +
                    "\r\nContent-Type: " + Resp.ContentType +
                    "\r\nContent-Length: " +
                    std::to_string(Resp.Body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  Out += Resp.Body;
  for (size_t Off = 0; Off < Out.size();) {
    ssize_t N = ::send(Fd, Out.data() + Off, Out.size() - Off, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break; // timed out, or the peer went away
    Off += static_cast<size_t>(N);
  }
  ::close(Fd);
}
