#ifndef MPFDB_CORE_FILE_IO_H_
#define MPFDB_CORE_FILE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace mpfdb {

// Whole-file IO for persistence. Every write, fsync, rename and read is a
// FaultInjector site ("File::Write", "File::Sync", "File::Rename",
// "Dir::Sync", "File::Read"), so tests can fail any step of a save or load.

// 64-bit FNV-1a of `bytes`. Each step is a bijection of the running state,
// so changing any single byte always changes the checksum.
uint64_t Checksum64(std::string_view bytes);

// Reads the whole file. A missing file is kNotFound; any other failure to
// open or read it is kInternal.
StatusOr<std::string> ReadFileBytes(const std::string& path);

// Creates or truncates `path`, writes `bytes` and fsyncs the file before
// returning.
Status WriteFileSynced(const std::string& path, std::string_view bytes);

// Atomically replaces `to` with `from` (rename(2)).
Status RenameFile(const std::string& from, const std::string& to);

// Fsyncs a directory, making renames and new entries in it durable.
Status SyncDirectory(const std::string& directory);

}  // namespace mpfdb

#endif  // MPFDB_CORE_FILE_IO_H_
