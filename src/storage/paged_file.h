#ifndef MPFDB_STORAGE_PAGED_FILE_H_
#define MPFDB_STORAGE_PAGED_FILE_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>

#include "storage/page.h"
#include "util/status.h"

namespace mpfdb {

// An append-only file of kPageSize pages, the backing store of a spill run.
// Not thread-safe (one owner at a time, like the rest of the engine).
class PagedFile {
 public:
  // Creates (truncating) a new paged file.
  static StatusOr<std::unique_ptr<PagedFile>> Create(const std::string& path);

  PagedFile(const PagedFile&) = delete;
  PagedFile& operator=(const PagedFile&) = delete;

  // Appends a page with the given contents (kPageSize bytes) in a single
  // write, returning its id.
  StatusOr<uint32_t> AppendPage(const std::byte* data);

  // Reads page `id` into `out` (kPageSize bytes).
  Status ReadPage(uint32_t id, std::byte* out);

  uint32_t page_count() const { return page_count_; }

 private:
  PagedFile(std::string path, std::fstream stream)
      : path_(std::move(path)), stream_(std::move(stream)) {}

  std::string path_;
  std::fstream stream_;
  uint32_t page_count_ = 0;
};

}  // namespace mpfdb

#endif  // MPFDB_STORAGE_PAGED_FILE_H_
