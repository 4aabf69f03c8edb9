#include "core/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/fault_injector.h"

namespace mpfdb {
namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::Internal(what + " '" + path + "': " + std::strerror(errno));
}

// Owns a file descriptor; closes it on every path out of the caller.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }

 private:
  int fd_;
};

}  // namespace

uint64_t Checksum64(std::string_view bytes) {
  uint64_t h = 14695981039346656037ull;
  for (char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

StatusOr<std::string> ReadFileBytes(const std::string& path) {
  MPFDB_RETURN_IF_ERROR(FaultInjector::MaybeFail("File::Read"));
  Fd file{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  if (file.get() < 0) {
    if (errno != ENOENT) return Errno("cannot open", path);
    return Status::NotFound("no file '" + path + "'");
  }
  std::string bytes;
  char buffer[1 << 16];
  ssize_t n;
  while ((n = ::read(file.get(), buffer, sizeof(buffer))) != 0) {
    if (n < 0 && errno != EINTR) return Errno("cannot read", path);
    if (n > 0) bytes.append(buffer, static_cast<size_t>(n));
  }
  return bytes;
}

Status WriteFileSynced(const std::string& path, std::string_view bytes) {
  Fd file{
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644)};
  if (file.get() < 0) return Errno("cannot create", path);
  MPFDB_RETURN_IF_ERROR(FaultInjector::MaybeFail("File::Write"));
  while (!bytes.empty()) {
    ssize_t n = ::write(file.get(), bytes.data(), bytes.size());
    if (n < 0 && errno != EINTR) return Errno("cannot write", path);
    if (n > 0) bytes.remove_prefix(static_cast<size_t>(n));
  }
  MPFDB_RETURN_IF_ERROR(FaultInjector::MaybeFail("File::Sync"));
  if (::fsync(file.get()) != 0) return Errno("cannot fsync", path);
  return Status::Ok();
}

Status RenameFile(const std::string& from, const std::string& to) {
  MPFDB_RETURN_IF_ERROR(FaultInjector::MaybeFail("File::Rename"));
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return Errno("cannot rename to", to);
  }
  return Status::Ok();
}

Status SyncDirectory(const std::string& directory) {
  MPFDB_RETURN_IF_ERROR(FaultInjector::MaybeFail("Dir::Sync"));
  Fd dir{::open(directory.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC)};
  if (dir.get() < 0) return Errno("cannot open directory", directory);
  if (::fsync(dir.get()) != 0) {
    return Errno("cannot fsync directory", directory);
  }
  return Status::Ok();
}

}  // namespace mpfdb
