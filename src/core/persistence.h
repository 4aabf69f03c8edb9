#ifndef MPFDB_CORE_PERSISTENCE_H_
#define MPFDB_CORE_PERSISTENCE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/database.h"
#include "util/status.h"

namespace mpfdb {

// Saves the database (variables, tables with keys, MPF views) into a
// directory: one `manifest` text file plus one file per table — CSV by
// default, the flat binary table format (storage/binary_table.h) when
// `binary` is true; the loader picks by file extension. The directory is
// created if missing. VE-caches and indexes are not persisted — they are
// derived state.
//
// A save is crash-consistent. Table files get names carrying a fresh
// generation number (`<table>.g<N>.csv` or `.mpft`), so no save overwrites
// a file that the current manifest names; each is fsynced. The manifest is
// written to `manifest.tmp`, fsynced and renamed over `manifest` last,
// between two directory fsyncs. Only then are the generation-named files
// that the new manifest does not name removed. A save that fails at any
// step leaves a directory that loads as the old database or the new one.
// A name holding '|', ',' or a newline, or a table name that cannot name a
// file, is kInvalidArgument and leaves the manifest as it was.
Status SaveDatabase(const Database& db, const std::string& directory,
                    bool binary = false);

// Loads a database previously written by SaveDatabase into `db`, which must
// be empty (no clash with existing variables/tables/views). The manifest's
// own checksum and every table file's checksum are verified before any
// table is parsed; a mismatch, or a table file the manifest names that is
// missing, is kInvalidArgument. A missing manifest is kNotFound; a manifest
// that exists but cannot be read is kInternal.
Status LoadDatabase(const std::string& directory, Database& db);

// The manifest, one record per line with '|'-separated fields:
//   variable|<name>|<domain>
//   table|<name>|<file>|<measure>|<key vars ','-joined>|<checksum>
//   view|<name>|<semiring>|<relations ','-joined>
//   checksum|<checksum of every byte before this line>
// Checksums are Checksum64 (core/file_io.h) in 16 lower-case hex digits.
struct Manifest {
  struct TableFile {
    std::string name;
    std::string file;  // a plain name inside the database directory
    std::string measure;
    std::vector<std::string> key_vars;
    uint64_t checksum = 0;
  };
  std::vector<std::pair<std::string, int64_t>> variables;
  std::vector<TableFile> tables;
  std::vector<MpfViewDef> views;
};

// Renders `manifest`, ending with its checksum line.
std::string FormatManifest(const Manifest& manifest);

// Verifies the trailing checksum line, then parses the records. A file name
// that is empty, absolute, contains '/' or a NUL, or is "." or ".." is
// kInvalidArgument, like any other malformed record.
StatusOr<Manifest> ParseManifest(std::string_view bytes);

}  // namespace mpfdb

#endif  // MPFDB_CORE_PERSISTENCE_H_
