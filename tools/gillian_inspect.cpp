//===- tools/gillian_inspect.cpp - Execution-journal inspector ------------===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline inspector for execution journals (DESIGN.md §4i):
///
///   gillian-inspect tree <journal> [--depth=N] [--json] [--top=N]
///   gillian-inspect why  <journal> <path-id|branch-trace>
///   gillian-inspect diff <a> <b> [--json] [--top=N]
///
/// Journals come from `--journal-out=` on any bench driver. A branch
/// trace is "<entry-proc>[#k][:i.j.k]" — the worker-count invariant path
/// name. `tree` ends with the --top=N sites that spent the most solver
/// wall; `diff` caps each of its sections at N. --depth and --top take a
/// count (decimal, 0 and up); any other value exits 2 with the usage.
///
//===----------------------------------------------------------------------===//

#include "obs/journal/analysis.h"

#include <charconv>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

using namespace gillian::obs::journal;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: gillian-inspect tree <journal> [--depth=N] [--json] "
      "[--top=N]\n"
      "       gillian-inspect why  <journal> <path-id|branch-trace>\n"
      "       gillian-inspect diff <a> <b> [--json] [--top=N]\n");
  return 2;
}

/// Reads all of \p S as a decimal count into \p Out.
bool parseCount(std::string_view S, size_t &Out) {
  auto [Stop, Ec] = std::from_chars(S.data(), S.data() + S.size(), Out);
  return Ec == std::errc() && Stop == S.data() + S.size();
}

bool load(const char *Path, JournalData &D) {
  std::string Err;
  if (!readJournalFile(Path, D, Err)) {
    std::fprintf(stderr, "gillian-inspect: %s: %s\n", Path, Err.c_str());
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 3)
    return usage();
  std::string Cmd = Argv[1];
  std::vector<std::string> Pos;
  bool Json = false;
  size_t Depth = 4, Top = 16;
  for (int I = 2; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--json")
      Json = true;
    else if (A.rfind("--depth=", 0) == 0 || A.rfind("--top=", 0) == 0) {
      std::string_view Value = std::string_view(A).substr(A.find('=') + 1);
      if (!parseCount(Value, A[2] == 'd' ? Depth : Top)) {
        std::fprintf(stderr, "gillian-inspect: %s is not a count\n",
                     A.c_str());
        return usage();
      }
    } else if (A.rfind("--", 0) == 0) {
      std::fprintf(stderr, "gillian-inspect: unknown flag %s\n", A.c_str());
      return usage();
    } else
      Pos.push_back(A);
  }

  if (Cmd == "tree") {
    if (Pos.size() != 1)
      return usage();
    JournalData D;
    if (!load(Pos[0].c_str(), D))
      return 1;
    std::string Out = Json ? treeJson(D, Depth, /*Enabled=*/true, Top)
                           : treeText(D, Depth, Top);
    std::fputs(Out.c_str(), stdout);
    if (Json)
      std::fputc('\n', stdout);
    return 0;
  }
  if (Cmd == "why") {
    if (Pos.size() != 2)
      return usage();
    JournalData D;
    if (!load(Pos[0].c_str(), D))
      return 1;
    std::string Out;
    bool Ok = whyText(D, Pos[1], Out);
    std::fputs(Out.c_str(), Ok ? stdout : stderr);
    return Ok ? 0 : 1;
  }
  if (Cmd == "diff") {
    if (Pos.size() != 2)
      return usage();
    JournalData A, B;
    if (!load(Pos[0].c_str(), A) || !load(Pos[1].c_str(), B))
      return 1;
    std::string Out = Json ? diffJson(A, B, Top) : diffText(A, B, Top);
    std::fputs(Out.c_str(), stdout);
    if (Json)
      std::fputc('\n', stdout);
    return 0;
  }
  return usage();
}
