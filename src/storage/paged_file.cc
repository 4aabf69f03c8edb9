#include "storage/paged_file.h"

#include "util/fault_injector.h"

namespace mpfdb {

StatusOr<std::unique_ptr<PagedFile>> PagedFile::Create(const std::string& path) {
  std::fstream stream(path, std::ios::binary | std::ios::in | std::ios::out |
                                std::ios::trunc);
  if (!stream) {
    return Status::Internal("cannot create paged file '" + path + "'");
  }
  return std::unique_ptr<PagedFile>(new PagedFile(path, std::move(stream)));
}

StatusOr<uint32_t> PagedFile::AppendPage(const std::byte* data) {
  MPFDB_RETURN_IF_ERROR(FaultInjector::MaybeFail("PagedFile::AppendPage"));
  uint32_t id = page_count_;
  stream_.clear();
  stream_.seekp(static_cast<std::streamoff>(id) *
                static_cast<std::streamoff>(kPageSize));
  stream_.write(reinterpret_cast<const char*>(data), kPageSize);
  if (!stream_) {
    return Status::Internal("page append failed in '" + path_ + "'");
  }
  ++page_count_;
  return id;
}

Status PagedFile::ReadPage(uint32_t id, std::byte* out) {
  MPFDB_RETURN_IF_ERROR(FaultInjector::MaybeFail("PagedFile::ReadPage"));
  if (id >= page_count_) {
    return Status::OutOfRange("page " + std::to_string(id) + " beyond " +
                              std::to_string(page_count_) + " pages");
  }
  stream_.clear();
  stream_.seekg(static_cast<std::streamoff>(id) *
                static_cast<std::streamoff>(kPageSize));
  stream_.read(reinterpret_cast<char*>(out), kPageSize);
  if (!stream_) {
    return Status::Internal("page read failed in '" + path_ + "'");
  }
  return Status::Ok();
}

}  // namespace mpfdb
