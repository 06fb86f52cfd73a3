#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

/// \file fsio.h
/// Durable file I/O primitives shared by every on-disk writer (snapshot
/// containers, repository manifests, write-ahead logs):
///
///   - AtomicFileWriter: all-or-nothing file replacement. Bytes stream
///     into `<path>.tmp`; Commit() fsyncs the data, closes (checking the
///     close itself — a failed flush at close is an error, not silence),
///     rename(2)s over the target, and fsyncs the parent directory so the
///     new name survives a crash. A writer that errors or dies mid-stream
///     leaves the previous file byte-identical; the stray `.tmp` is
///     removed by the destructor (or ignored by readers after a crash).
///   - LogFile: an append-only fd with an explicit Datasync() — the
///     group-commit primitive under repo::WriteAheadLog.
///   - SyncDirectory / RenameFile / RemoveFile / ReadAllBytes: the POSIX
///     shims the two classes are built from, exported for the callers
///     (log rotation, recovery) that need the pieces individually.
///
/// On non-POSIX builds the shims degrade to the C++ standard library
/// without durability barriers (documented best-effort; every supported
/// CI target is POSIX).
///
/// Fault injection (tests only): SetWriteFaultBudgetForTesting makes
/// writes start failing after N more bytes, and
/// SetCommitFaultForTesting(true) makes the next AtomicFileWriter::Commit
/// fail its close-flush — simulating torn writes and ENOSPC-at-close
/// without a real full disk. DurabilityFreezeForTesting holds every step
/// that changes a file's name or bytes, so a test can copy a live
/// directory as it stood at one instant. Not for production code paths.

namespace ppq {

/// fsync the directory itself so a freshly created/renamed entry inside
/// it survives a crash. No-op (OK) on platforms without directory fds.
Status SyncDirectory(const std::string& dir);

/// rename(2): atomically replace \p to with \p from (same filesystem).
/// Callers that need the new name to be crash-durable follow up with
/// SyncDirectory on the parent.
Status RenameFile(const std::string& from, const std::string& to);

/// unlink(2) \p path; a file that is already gone is not an error.
Status RemoveFile(const std::string& path);

/// Slurp a whole file. IOError when missing/unreadable.
Result<std::vector<uint8_t>> ReadAllBytes(const std::string& path);

/// Truncate \p path to \p size bytes and fsync the result, so the
/// dropped suffix cannot resurrect after a crash. Used by WAL recovery to
/// cut a torn active log back to its valid record prefix before the file
/// is retired into a role (generation) whose readers treat a tear as
/// unrecoverable bit rot.
Status TruncateFile(const std::string& path, uint64_t size);

/// \brief Write-a-new-file-then-swap: the atomic save primitive.
/// Open() -> Append()* -> Commit(); any failure (or destruction without
/// Commit) leaves the target untouched and removes the temp file.
class AtomicFileWriter {
 public:
  /// \p path is the FINAL name; bytes stream into `path + ".tmp"`.
  explicit AtomicFileWriter(std::string path);
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  Status Open();
  Status Append(const void* data, size_t size);
  /// fsync + close (checked) + rename over the target + parent-dir fsync.
  Status Commit();

  const std::string& path() const { return path_; }
  const std::string& tmp_path() const { return tmp_path_; }

 private:
  void Abandon();  ///< close + unlink the temp file, best effort

  std::string path_;
  std::string tmp_path_;
  int fd_ = -1;
  bool committed_ = false;
};

/// One-shot convenience over AtomicFileWriter for small buffers.
Status AtomicWriteFile(const std::string& path, const void* data, size_t size);

/// \brief Append-only log fd. Append() is a buffered (page-cache) write;
/// Datasync() is the durability barrier (fdatasync where available).
class LogFile {
 public:
  LogFile() = default;
  ~LogFile();

  LogFile(const LogFile&) = delete;
  LogFile& operator=(const LogFile&) = delete;

  /// \p truncate starts the file empty (fresh log); otherwise appends.
  Status Open(const std::string& path, bool truncate);
  Status Append(const void* data, size_t size);
  Status Datasync();
  /// Datasync + close; safe to call twice. The destructor calls it (best
  /// effort, errors dropped) so a dropped log still lands its tail.
  Status Close();

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  std::string path_;
};

/// \brief Advisory single-opener lock over a directory: open-or-create a
/// DEDICATED lock file inside it and flock(2) it LOCK_EX | LOCK_NB. A
/// second Acquire of the same file — from another process or the same one
/// — fails with AlreadyExists instead of letting two writers interleave.
///
/// The lock must live on its own file, never on a file the repository
/// rename-replaces (e.g. the manifest): flock identity follows the open
/// file description, so a rename-replace would silently orphan the lock
/// with the old inode. Because the kernel drops the lock when the holder's
/// fd closes — including on crash — a dead opener never leaves a stale
/// lock behind, which is why this beats a pid file. Advisory only:
/// cooperating openers (everything going through LiveRepository::Open)
/// are excluded; a rogue process writing the files directly is not.
///
/// On non-POSIX builds Acquire degrades to best-effort always-OK
/// (documented; every supported CI target is POSIX).
class DirectoryLock {
 public:
  DirectoryLock() = default;
  /// Releases (close drops the flock).
  ~DirectoryLock();

  DirectoryLock(const DirectoryLock&) = delete;
  DirectoryLock& operator=(const DirectoryLock&) = delete;

  /// Take the exclusive lock on \p path (creating the file if needed).
  /// AlreadyExists when another holder has it; IOError on open failures.
  Status Acquire(const std::string& path);
  /// Drop the lock early (idempotent; the destructor calls it).
  void Release();

  bool held() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  std::string path_;
};

/// Test hook: after \p bytes more successfully written bytes, every
/// AtomicFileWriter/LogFile write fails with IOError (simulating a torn
/// write / full disk). Negative disables (the default). Global; tests
/// must reset it.
void SetWriteFaultBudgetForTesting(long long bytes);

/// Test hook: when true, the next AtomicFileWriter::Commit fails at the
/// close-flush step (ENOSPC-at-close simulation) and clears the flag.
void SetCommitFaultForTesting(bool fail);

/// Test hook: while true, every LogFile::Datasync (including the sync
/// inside Close) fails with an injected IOError — simulating a dying
/// disk under the WAL group-commit barrier. Global; tests must reset it.
void SetSyncFaultForTesting(bool fail);

/// \brief Test hook: while one lives, every step that changes a file's
/// name or bytes — the creating open, write and rename of
/// AtomicFileWriter and LogFile, RenameFile, RemoveFile and TruncateFile —
/// waits before it starts; constructing one waits for the steps already
/// running. A copy of a live repository directory taken under it is the
/// directory as it stood at one instant between two steps, which a crash
/// can leave (with every write already flushed), instead of a mix of
/// states from before and after a background seal's renames.
/// Process-wide; do not nest, and run no durability step on the holding
/// thread.
class DurabilityFreezeForTesting {
 public:
  DurabilityFreezeForTesting();
  ~DurabilityFreezeForTesting();

  DurabilityFreezeForTesting(const DurabilityFreezeForTesting&) = delete;
  DurabilityFreezeForTesting& operator=(const DurabilityFreezeForTesting&) =
      delete;
};

}  // namespace ppq
