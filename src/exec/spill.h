#ifndef MPFDB_EXEC_SPILL_H_
#define MPFDB_EXEC_SPILL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/paged_file.h"
#include "util/status.h"

namespace mpfdb {

// Number of Grace-style partitions an operator fans its state into when the
// memory budget is hit. Partition choice uses the TOP bits of the key hash
// (hash >> 60) so it stays independent of the low bits the in-partition
// hash tables mask on.
inline constexpr size_t kSpillPartitions = 16;

// One spilled run of fixed-arity rows: `arity` VarValues plus a double
// measure per record, packed into kPageSize DataPages. Records are written
// append-only through a one-page buffer, then read back in insertion order
// after Rewind(). The backing file is created under the query's spill
// directory and removed by the destructor, so spills never outlive the
// operator that wrote them — including on error paths.
//
// All IO goes through PagedFile, which means spill traffic is visible to
// FaultInjector like any other storage traffic.
class SpillFile {
 public:
  static StatusOr<std::unique_ptr<SpillFile>> Create(const std::string& path,
                                                     size_t arity);
  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  // Appends one record. `vars` may be null when arity is 0.
  Status Append(const VarValue* vars, double measure);

  // Flushes the tail page and positions the read cursor at the first
  // record. Appends are not allowed after Rewind.
  Status Rewind();

  // Reads the next record; returns false at end of run.
  StatusOr<bool> Next(VarValue* vars, double* measure);

  uint64_t num_rows() const { return rows_; }
  uint64_t bytes_written() const;

 private:
  SpillFile(std::string path, std::unique_ptr<PagedFile> file, size_t arity);

  Status FlushBuffer();
  Status LoadPage(uint32_t page_id);

  std::string path_;
  std::unique_ptr<PagedFile> file_;
  size_t arity_;
  size_t rows_per_page_;
  std::vector<std::byte> buffer_;
  size_t rows_in_buffer_ = 0;
  uint64_t rows_ = 0;
  bool reading_ = false;
  uint32_t read_page_ = 0;
  size_t read_slot_ = 0;
  uint64_t read_row_ = 0;
};

}  // namespace mpfdb

#endif  // MPFDB_EXEC_SPILL_H_
