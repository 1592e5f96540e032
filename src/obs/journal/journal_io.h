//===- obs/journal/journal_io.h - Journal binary file format ---*- C++ -*-===//
//
// Part of the Gillian-C++ reproduction of "Gillian, Part I" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The binary-framed on-disk journal format (DESIGN.md §4i):
///
///   "GJL1"                       4-byte magic
///   varint version (= 1)
///   varint string-count          string table, first-seen order over the
///   { varint len, bytes } ...      canonical event stream; index 0 = ""
///   varint event-count
///   events ...                   per event: 4 raw bytes Kind A B C, then
///                                varints Path Aux WallNs Step Proc Cmd X
///                                (Proc — and X of Action events — are
///                                string-table indices)
///   "GJND"                       4-byte end frame (truncation guard)
///
/// Varints are LEB128 (7 bits per byte, minimal length), which together
/// with the string table keeps Table-1-suite journals at a few MB. The
/// writer is canonical — serialize(parse(bytes)) == bytes — which the
/// round-trip test pins down.
///
//===----------------------------------------------------------------------===//

#ifndef GILLIAN_OBS_JOURNAL_JOURNAL_IO_H
#define GILLIAN_OBS_JOURNAL_JOURNAL_IO_H

#include "obs/journal/journal.h"

#include <string>
#include <string_view>
#include <vector>

namespace gillian::obs::journal {

/// A journal decoupled from the process's interner: Strings is the table
/// (index 0 is always ""), and event Proc / Action-X fields are table
/// indices. This is what files store and what the analysis layer consumes.
struct JournalData {
  std::vector<std::string> Strings;
  std::vector<Event> Events;

  const std::string &str(uint32_t Idx) const {
    static const std::string Empty;
    return Idx < Strings.size() ? Strings[Idx] : Empty;
  }
};

/// Snapshots the live journal and rewrites interned-string ids into a
/// fresh first-seen-order string table.
JournalData capture();

/// Canonical serialization of \p D (see the file-format comment above).
std::string serializeJournal(const JournalData &D);

/// Parses \p Bytes; returns false (with \p Err set) on bad magic, bad
/// version, truncation, varint overflow, out-of-range string-table
/// indices, an event kind or a Branch layer or verdict nibble that names
/// none, or a taken Branch event whose child id is not above its node's.
/// On success the re-serialization of \p Out is byte-identical to the
/// writer's output for the same data.
bool parseJournal(std::string_view Bytes, JournalData &Out, std::string &Err);

/// Serializes and writes atomically (temp file + rename, like saveCache).
/// Bumps journal bytes/files counters; \p BytesOut gets the file size.
bool writeJournalFile(const JournalData &D, const std::string &Path,
                      uint64_t *BytesOut, std::string *Err);

/// Reads and parses \p Path.
bool readJournalFile(const std::string &Path, JournalData &Out,
                     std::string &Err);

} // namespace gillian::obs::journal

#endif // GILLIAN_OBS_JOURNAL_JOURNAL_IO_H
