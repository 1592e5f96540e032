//===- bench/bench_common.h - Shared bench-driver plumbing ----*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The argument parsing, observability wiring and cold-start idiom shared
/// by the six bench drivers. Every driver accepts:
///
///   --workers=N / --workers N   worker count of the parallel
///                               configurations (default 4, the acceptance
///                               target's core count)
///   --json / --no-json          emit / suppress the trailing
///                               machine-readable JSON line (default on)
///   --trace-out=FILE            enable the execution journal and write
///                               its chrome://tracing view at exit
///   --cache-file=FILE           persist the canonical solver result cache
///                               across invocations: load FILE at startup
///                               (and re-seed it after every coldStart()),
///                               save the cache back at exit
///   --serve=HOST:PORT           start the live introspection HTTP server
///                               (/metrics /trace /tree /progress
///                               /healthz); PORT 0 binds an ephemeral port,
///                               announced on stderr for CI discovery.
///                               A long run is watched by polling
///                               /progress (see EXPERIMENTS.md)
///   --serve-linger-ms=N        keep the process alive up to N ms after
///                               the workload so a scraper can connect;
///                               exits early once >= 1 request was served
///                               and ~1.5 s passed since the last one
///   --journal-out=FILE          enable the lossless execution journal and
///                               write it (binary, DESIGN.md §4i) at exit;
///                               inspect with tools/gillian-inspect
///
/// Arguments the parser consumes are removed from argv, so drivers built
/// on google-benchmark can hand the remainder to benchmark::Initialize;
/// the other drivers call rejectLeftoverArgs so a mistyped flag exits 2
/// instead of silently running with the defaults.
///
/// Drivers call setupObs(Args) once after parsing and finishObs(Args)
/// once before exiting; JSON lines are built with obs::JsonWriter (the
/// one JSON emitter of the codebase) instead of per-driver snprintf
/// format strings.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_BENCH_BENCH_COMMON_H
#define GILLIAN_BENCH_BENCH_COMMON_H

#include "obs/exporters.h"
#include "obs/introspect/introspect_server.h"
#include "obs/journal/journal.h"
#include "obs/journal/journal_io.h"
#include "obs/json_writer.h"
#include "obs/span.h"
#include "solver/solver.h"
#include "solver/solver_cache.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

namespace gillian::bench {

struct BenchArgs {
  uint32_t Workers = 4;   ///< worker count of the parallel configurations
  bool Json = true;       ///< emit the trailing machine-readable JSON line
  std::string TraceOut;   ///< chrome://tracing output path ("" = off)
  std::string CacheFile;  ///< persisted solver result cache ("" = off)
  std::string Serve;      ///< introspection server "host:port" ("" = off)
  std::string JournalOut; ///< execution-journal path ("" = off)
  uint64_t ServeLingerMs = 0; ///< post-workload serve window
};

/// Parses (and strips from argv) the shared driver arguments; exits with a
/// diagnostic on a malformed value.
inline BenchArgs parseBenchArgs(int &argc, char **argv) {
  BenchArgs Args;
  auto parseWorkers = [](const char *Value) -> uint32_t {
    char *End = nullptr;
    unsigned long N = std::strtoul(Value, &End, 10);
    if (End == Value || *End != '\0' || N == 0 || N > 1024) {
      std::fprintf(stderr, "invalid --workers value: %s\n", Value);
      std::exit(2);
    }
    return static_cast<uint32_t>(N);
  };
  auto nextValue = [&](int &In, const char *Flag) -> const char * {
    if (In + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", Flag);
      std::exit(2);
    }
    return argv[++In];
  };
  auto parseMs = [](const char *Flag, const char *Value) -> uint64_t {
    char *End = nullptr;
    unsigned long long N = std::strtoull(Value, &End, 10);
    if (End == Value || *End != '\0') {
      std::fprintf(stderr, "invalid %s value: %s\n", Flag, Value);
      std::exit(2);
    }
    return N;
  };
  int Out = 1;
  for (int In = 1; In < argc; ++In) {
    const char *A = argv[In];
    if (std::strncmp(A, "--workers=", 10) == 0) {
      Args.Workers = parseWorkers(A + 10);
    } else if (std::strcmp(A, "--workers") == 0) {
      Args.Workers = parseWorkers(nextValue(In, "--workers"));
    } else if (std::strcmp(A, "--json") == 0) {
      Args.Json = true;
    } else if (std::strcmp(A, "--no-json") == 0) {
      Args.Json = false;
    } else if (std::strncmp(A, "--trace-out=", 12) == 0) {
      Args.TraceOut = A + 12;
    } else if (std::strcmp(A, "--trace-out") == 0) {
      Args.TraceOut = nextValue(In, "--trace-out");
    } else if (std::strncmp(A, "--cache-file=", 13) == 0) {
      Args.CacheFile = A + 13;
    } else if (std::strcmp(A, "--cache-file") == 0) {
      Args.CacheFile = nextValue(In, "--cache-file");
    } else if (std::strncmp(A, "--serve=", 8) == 0) {
      Args.Serve = A + 8;
    } else if (std::strcmp(A, "--serve") == 0) {
      Args.Serve = nextValue(In, "--serve");
    } else if (std::strncmp(A, "--journal-out=", 14) == 0) {
      Args.JournalOut = A + 14;
    } else if (std::strcmp(A, "--journal-out") == 0) {
      Args.JournalOut = nextValue(In, "--journal-out");
    } else if (std::strncmp(A, "--serve-linger-ms=", 18) == 0) {
      Args.ServeLingerMs = parseMs("--serve-linger-ms", A + 18);
    } else if (std::strcmp(A, "--serve-linger-ms") == 0) {
      Args.ServeLingerMs =
          parseMs("--serve-linger-ms", nextValue(In, "--serve-linger-ms"));
    } else {
      argv[Out++] = argv[In];
    }
  }
  argc = Out;
  argv[argc] = nullptr;
  return Args;
}

/// Exits 2 on the first argument no parser consumed (argv[0] aside).
inline void rejectLeftoverArgs(int argc, char **argv) {
  if (argc > 1) {
    std::fprintf(stderr, "%s: unknown argument: %s\n", argv[0], argv[1]);
    std::exit(2);
  }
}

/// The cache file coldStart() re-seeds from (set by setupObs).
inline std::string &persistedCacheFile() {
  static std::string Path;
  return Path;
}

/// Seeds the process-wide result cache from a persisted cache file.
inline long loadPersistedCache(const std::string &Path) {
  Solver S(SolverOptions(), SolverCache::process());
  return S.loadCache(Path);
}

/// Saves the process-wide result cache to a persisted cache file.
inline long savePersistedCache(const std::string &Path) {
  Solver S(SolverOptions(), SolverCache::process());
  return S.saveCache(Path);
}

/// Applies the observability and persistence flags: the execution
/// journal, the live introspection server, and the warm-start cache load.
/// Call once after parseBenchArgs.
inline void setupObs(const BenchArgs &Args) {
  if (!Args.JournalOut.empty() || !Args.TraceOut.empty())
    obs::journal::setEnabled(true);
  if (!Args.Serve.empty())
    obs::startProcessIntrospection(Args.Serve);
  if (!Args.CacheFile.empty()) {
    persistedCacheFile() = Args.CacheFile;
    long N = loadPersistedCache(Args.CacheFile);
    if (N > 0)
      std::fprintf(stderr, "[bench] warm start: %ld solver-cache entries "
                           "from %s\n",
                   N, Args.CacheFile.c_str());
  }
}

/// Writes the journal's --journal-out file and its --trace-out chrome
/// view, then clears both paths in \p Args so a later call writes
/// nothing. Drivers that reset the journal before exiting call it first.
inline void writeJournalOutputs(BenchArgs &Args) {
  if (!Args.JournalOut.empty()) {
    obs::journal::JournalData D = obs::journal::capture();
    std::string Err;
    if (obs::journal::writeJournalFile(D, Args.JournalOut, nullptr, &Err))
      std::fprintf(stderr, "[bench] wrote journal (%zu events) to %s\n",
                   D.Events.size(), Args.JournalOut.c_str());
    else
      std::fprintf(stderr, "[bench] failed to write journal to %s: %s\n",
                   Args.JournalOut.c_str(), Err.c_str());
    Args.JournalOut.clear();
  }
  if (!Args.TraceOut.empty()) {
    if (obs::writeChromeTrace(Args.TraceOut))
      std::fprintf(stderr, "[bench] chrome trace written to %s\n",
                   Args.TraceOut.c_str());
    else
      std::fprintf(stderr, "[bench] failed to write trace to %s\n",
                   Args.TraceOut.c_str());
    Args.TraceOut.clear();
  }
}

/// Writes the journal outputs, rides out the --serve-linger-ms window and
/// saves the persisted cache (per Args). Call once before exiting.
inline void finishObs(BenchArgs Args) {
  writeJournalOutputs(Args);
  if (!Args.Serve.empty() && Args.ServeLingerMs > 0 &&
      obs::processIntrospectServer().running()) {
    // Keep serving so an out-of-process scraper (CI's curl loop) can
    // still connect after the workload; exit early once somebody has
    // scraped and then gone quiet for ~1.5 s.
    obs::IntrospectServer &S = obs::processIntrospectServer();
    auto now = [] {
      return static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count());
    };
    constexpr uint64_t QuietNs = 1500ull * 1000 * 1000;
    uint64_t Deadline = now() + Args.ServeLingerMs * 1000000ull;
    while (now() < Deadline) {
      uint64_t Last = S.lastRequestNs();
      if (S.requestsServed() > 0 && Last != 0 && now() - Last > QuietNs)
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    S.stop();
  }
  if (!Args.CacheFile.empty()) {
    long N = savePersistedCache(Args.CacheFile);
    if (N >= 0)
      std::fprintf(stderr, "[bench] saved %ld solver-cache entries to %s\n",
                   N, Args.CacheFile.c_str());
    else
      std::fprintf(stderr, "[bench] failed to save solver cache to %s\n",
                   Args.CacheFile.c_str());
  }
}

/// A genuinely cold solver for the next timed configuration:
/// Solver::resetCache over the process-wide result cache colds every
/// memoised layer runSuite feeds (which would otherwise warm every later
/// row) — the result cache and every thread's Z3 solver.
/// Under --cache-file the result cache is then re-seeded from the
/// persisted entries — the explicit opt-in warm start, identical for
/// every row.
inline void coldStart() {
  Solver(SolverOptions(), SolverCache::process()).resetCache();
  if (!persistedCacheFile().empty())
    loadPersistedCache(persistedCacheFile());
}

inline double seconds(std::chrono::steady_clock::time_point From) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       From)
      .count();
}

} // namespace gillian::bench

#endif // GILLIAN_BENCH_BENCH_COMMON_H
