#include "common/fsio.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <shared_mutex>
#include <system_error>
#include <utility>

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>
#define PPQ_FSIO_POSIX 1
#endif

namespace ppq {
namespace {

/// Fault-injection state (tests only; see header). `budget < 0` disables.
std::atomic<long long> g_write_fault_budget{-1};
std::atomic<bool> g_commit_fault{false};
std::atomic<bool> g_sync_fault{false};

/// Every step that changes a file's name or bytes holds this shared for
/// its syscall; DurabilityFreezeForTesting holds it exclusively.
std::shared_mutex g_durability_steps;
using StepLock = std::shared_lock<std::shared_mutex>;

/// Returns how many of \p size bytes the fault budget allows (all of them
/// when injection is disabled) and burns the budget.
size_t AllowedBytes(size_t size) {
  long long budget = g_write_fault_budget.load(std::memory_order_relaxed);
  if (budget < 0) return size;
  for (;;) {
    const long long take =
        std::min<long long>(budget, static_cast<long long>(size));
    if (g_write_fault_budget.compare_exchange_weak(
            budget, budget - take, std::memory_order_relaxed)) {
      return static_cast<size_t>(take);
    }
    if (budget < 0) return size;
  }
}

Status ErrnoError(const std::string& what, const std::string& path) {
  // std::strerror returns a pointer into shared static storage — a data
  // race when two fsio calls fail concurrently (WALs on distinct shards
  // do). std::error_code::message copies under the hood instead.
  const std::error_code ec(errno, std::generic_category());
  return Status::IOError(what + ": " + path + ": " + ec.message());
}

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

#ifdef PPQ_FSIO_POSIX
/// Full-write loop: write(2) may be short on signals/pipes.
Status WriteAll(int fd, const uint8_t* data, size_t size,
                const std::string& path) {
  const StepLock step(g_durability_steps);
  const size_t allowed = AllowedBytes(size);
  size_t done = 0;
  while (done < allowed) {
    const ssize_t n = ::write(fd, data + done, allowed - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("write failed", path);
    }
    done += static_cast<size_t>(n);
  }
  if (allowed < size) {
    return Status::IOError("write failed (injected fault): " + path);
  }
  return Status::OK();
}

Status DatasyncFd(int fd, const std::string& path) {
  if (g_sync_fault.load(std::memory_order_relaxed)) {
    return Status::IOError("fdatasync failed (injected fault): " + path);
  }
#if defined(__linux__)
  if (::fdatasync(fd) != 0) return ErrnoError("fdatasync failed", path);
#else
  if (::fsync(fd) != 0) return ErrnoError("fsync failed", path);
#endif
  return Status::OK();
}
#endif  // PPQ_FSIO_POSIX

}  // namespace

void SetWriteFaultBudgetForTesting(long long bytes) {
  g_write_fault_budget.store(bytes, std::memory_order_relaxed);
}

void SetCommitFaultForTesting(bool fail) {
  g_commit_fault.store(fail, std::memory_order_relaxed);
}

void SetSyncFaultForTesting(bool fail) {
  g_sync_fault.store(fail, std::memory_order_relaxed);
}

DurabilityFreezeForTesting::DurabilityFreezeForTesting() {
  g_durability_steps.lock();
}

DurabilityFreezeForTesting::~DurabilityFreezeForTesting() {
  g_durability_steps.unlock();
}

Status SyncDirectory(const std::string& dir) {
#ifdef PPQ_FSIO_POSIX
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoError("cannot open directory", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoError("directory fsync failed", dir);
  return Status::OK();
#else
  (void)dir;
  return Status::OK();  // best effort: no directory fds on this platform
#endif
}

Status RenameFile(const std::string& from, const std::string& to) {
  const StepLock step(g_durability_steps);
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return ErrnoError("rename failed", from + " -> " + to);
  }
  return Status::OK();
}

Status RemoveFile(const std::string& path) {
  const StepLock step(g_durability_steps);
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (ec) {
    return Status::IOError("cannot remove " + path + ": " + ec.message());
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IOError("cannot stat: " + path);
  in.seekg(0);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  if (size > 0 && !in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    return Status::IOError("short read: " + path);
  }
  return bytes;
}

Status TruncateFile(const std::string& path, uint64_t size) {
  const StepLock step(g_durability_steps);
#ifdef PPQ_FSIO_POSIX
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return ErrnoError("cannot open for truncation", path);
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    const Status status = ErrnoError("ftruncate failed", path);
    ::close(fd);
    return status;
  }
  // The dropped suffix must STAY dropped across a crash: sync the new
  // length before the caller renames the file into a fully-synced role.
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoError("fsync failed", path);
  return Status::OK();
#else
  std::error_code ec;
  std::filesystem::resize_file(path, size, ec);
  if (ec) {
    return Status::IOError("resize failed: " + path + ": " + ec.message());
  }
  return Status::OK();  // best effort: no durability barrier (see header)
#endif
}

// ---------------------------------------------------------------------------
// DirectoryLock
// ---------------------------------------------------------------------------

DirectoryLock::~DirectoryLock() { Release(); }

Status DirectoryLock::Acquire(const std::string& path) {
#ifdef PPQ_FSIO_POSIX
  if (fd_ >= 0) {
    return Status::Internal("DirectoryLock: already holding " + path_);
  }
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoError("cannot open lock file", path);
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    const int err = errno;
    ::close(fd);
    if (err == EWOULDBLOCK) {
      return Status::AlreadyExists(
          "repository is already open (another opener holds " + path +
          "; close it first — concurrent writers would interleave WAL and "
          "container state)");
    }
    errno = err;
    return ErrnoError("flock failed", path);
  }
  fd_ = fd;
  path_ = path;
  return Status::OK();
#else
  path_ = path;
  return Status::OK();  // best effort: no advisory locks (see header)
#endif
}

void DirectoryLock::Release() {
#ifdef PPQ_FSIO_POSIX
  if (fd_ >= 0) {
    // close drops the flock with the open file description.
    ::close(fd_);
    fd_ = -1;
  }
#endif
  path_.clear();
}

// ---------------------------------------------------------------------------
// AtomicFileWriter
// ---------------------------------------------------------------------------

AtomicFileWriter::AtomicFileWriter(std::string path)
    : path_(std::move(path)), tmp_path_(path_ + ".tmp") {}

AtomicFileWriter::~AtomicFileWriter() {
  if (!committed_) Abandon();
}

void AtomicFileWriter::Abandon() {
#ifdef PPQ_FSIO_POSIX
  if (fd_ >= 0) ::close(fd_);
#endif
  fd_ = -1;
  (void)RemoveFile(tmp_path_);
}

Status AtomicFileWriter::Open() {
#ifdef PPQ_FSIO_POSIX
  const StepLock step(g_durability_steps);
  fd_ = ::open(tmp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) return ErrnoError("cannot open for writing", tmp_path_);
  return Status::OK();
#else
  return Status::IOError("AtomicFileWriter: unsupported platform");
#endif
}

Status AtomicFileWriter::Append(const void* data, size_t size) {
#ifdef PPQ_FSIO_POSIX
  if (fd_ < 0) return Status::IOError("AtomicFileWriter: not open");
  const Status status =
      WriteAll(fd_, static_cast<const uint8_t*>(data), size, tmp_path_);
  if (!status.ok()) Abandon();
  return status;
#else
  (void)data;
  (void)size;
  return Status::IOError("AtomicFileWriter: unsupported platform");
#endif
}

Status AtomicFileWriter::Commit() {
#ifdef PPQ_FSIO_POSIX
  if (fd_ < 0) return Status::IOError("AtomicFileWriter: not open");
  // Data must be on stable storage BEFORE the rename publishes the name:
  // otherwise a crash can surface the new name with torn contents.
  if (::fsync(fd_) != 0) {
    const Status status = ErrnoError("fsync failed", tmp_path_);
    Abandon();
    return status;
  }
  // The close itself is checked: a failed flush at close (ENOSPC, quota)
  // must fail the save, not report OK over a corrupt temp file.
  const bool close_failed = ::close(fd_) != 0;
  fd_ = -1;
  if (close_failed || g_commit_fault.exchange(false)) {
    (void)RemoveFile(tmp_path_);
    return close_failed ? ErrnoError("close failed", tmp_path_)
                        : Status::IOError("close failed (injected fault): " +
                                          tmp_path_);
  }
  Status status = RenameFile(tmp_path_, path_);
  if (!status.ok()) {
    (void)RemoveFile(tmp_path_);
    return status;
  }
  status = SyncDirectory(ParentDir(path_));
  if (!status.ok()) return status;
  committed_ = true;
  return Status::OK();
#else
  return Status::IOError("AtomicFileWriter: unsupported platform");
#endif
}

Status AtomicWriteFile(const std::string& path, const void* data,
                       size_t size) {
  AtomicFileWriter writer(path);
  PPQ_RETURN_NOT_OK(writer.Open());
  PPQ_RETURN_NOT_OK(writer.Append(data, size));
  return writer.Commit();
}

// ---------------------------------------------------------------------------
// LogFile
// ---------------------------------------------------------------------------

LogFile::~LogFile() {
  const Status status = Close();  // best effort on the destructor path
  (void)status;
}

Status LogFile::Open(const std::string& path, bool truncate) {
#ifdef PPQ_FSIO_POSIX
  if (fd_ >= 0) return Status::IOError("LogFile: already open");
  const StepLock step(g_durability_steps);
  const int flags = O_WRONLY | O_CREAT | O_APPEND | (truncate ? O_TRUNC : 0);
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) return ErrnoError("cannot open log", path);
  path_ = path;
  return Status::OK();
#else
  (void)path;
  (void)truncate;
  return Status::IOError("LogFile: unsupported platform");
#endif
}

Status LogFile::Append(const void* data, size_t size) {
#ifdef PPQ_FSIO_POSIX
  if (fd_ < 0) return Status::IOError("LogFile: not open");
  return WriteAll(fd_, static_cast<const uint8_t*>(data), size, path_);
#else
  (void)data;
  (void)size;
  return Status::IOError("LogFile: unsupported platform");
#endif
}

Status LogFile::Datasync() {
#ifdef PPQ_FSIO_POSIX
  if (fd_ < 0) return Status::IOError("LogFile: not open");
  return DatasyncFd(fd_, path_);
#else
  return Status::IOError("LogFile: unsupported platform");
#endif
}

Status LogFile::Close() {
#ifdef PPQ_FSIO_POSIX
  if (fd_ < 0) return Status::OK();
  Status status = DatasyncFd(fd_, path_);
  if (::close(fd_) != 0 && status.ok()) {
    status = ErrnoError("close failed", path_);
  }
  fd_ = -1;
  return status;
#else
  return Status::OK();
#endif
}

}  // namespace ppq
