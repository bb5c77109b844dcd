#include "common/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/hash.h"
#include "common/rng.h"

namespace her {
namespace {

/// Maps an errno to the status taxonomy: a full disk is ResourceExhausted
/// (the caller can shed load and retry once space frees), everything else
/// is an I/O error. Every message carries the "storage:" prefix — see the
/// Env doc comment.
Status ErrnoStatus(const std::string& op, const std::string& path) {
  const int err = errno;
  const std::string msg =
      "storage: " + op + " " + path + ": " + std::strerror(err);
  if (err == ENOSPC || err == EDQUOT) return Status::ResourceExhausted(msg);
  return Status::IOError(msg);
}

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(std::string_view data) override {
    if (fd_ < 0) return Status::IOError("storage: write after close");
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::write(fd_, data.data() + off, data.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("write", path_);
      }
      off += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (fd_ < 0) return Status::IOError("storage: fsync after close");
    if (::fsync(fd_) != 0 && errno != EINVAL && errno != ENOTSUP) {
      return ErrnoStatus("fsync", path_);
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return ErrnoStatus("close", path_);
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return ErrnoStatus("open", path);
    return std::unique_ptr<WritableFile>(new PosixWritableFile(fd, path));
  }

  Result<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path, uint64_t* size) override {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) return ErrnoStatus("open", path);
    const off_t end = ::lseek(fd, 0, SEEK_END);
    if (end < 0) {
      const Status st = ErrnoStatus("lseek", path);
      ::close(fd);
      return st;
    }
    *size = static_cast<uint64_t>(end);
    return std::unique_ptr<WritableFile>(new PosixWritableFile(fd, path));
  }

  Result<std::string> ReadFileToString(const std::string& path) override {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::IOError("storage: cannot open " + path);
    std::string data;
    char buf[1 << 16];
    while (in.read(buf, sizeof buf) || in.gcount() > 0) {
      data.append(buf, static_cast<size_t>(in.gcount()));
      if (in.eof()) break;
    }
    // eof+fail is the normal end-of-read state; badbit means the stream
    // lost integrity mid-read (disk error) and the buffer is silently
    // truncated — exactly the case that must not pass as success.
    if (in.bad()) return Status::IOError("storage: I/O error reading " + path);
    return data;
  }

  Result<std::string> ReadFilePrefix(const std::string& path,
                                     size_t n) override {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return ErrnoStatus("open", path);
    std::string data(n, '\0');
    size_t off = 0;
    while (off < n) {
      const ssize_t got = ::read(fd, data.data() + off, n - off);
      if (got < 0) {
        if (errno == EINTR) continue;
        const Status st = ErrnoStatus("read", path);
        ::close(fd);
        return st;
      }
      if (got == 0) break;
      off += static_cast<size_t>(got);
    }
    ::close(fd);
    data.resize(off);
    return data;
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) return ErrnoStatus("stat", path);
    return static_cast<uint64_t>(st.st_size);
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return ErrnoStatus("rename", to);
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) return ErrnoStatus("unlink", path);
    return Status::OK();
  }

  Status TruncateFile(const std::string& path, uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return ErrnoStatus("truncate", path);
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& dir) override {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    // Best-effort on filesystems that reject directory fds; a failure to
    // open is not an error (the data file itself is already synced).
    if (fd < 0) return Status::OK();
    Status st = Status::OK();
    if (::fsync(fd) != 0 && errno != EINVAL && errno != ENOTSUP) {
      st = ErrnoStatus("fsync dir", dir);
    }
    ::close(fd);
    return st;
  }

  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return ErrnoStatus("opendir", dir);
    std::vector<std::string> names;
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      if (e->d_type == DT_DIR) continue;
      names.push_back(name);
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());
    return names;
  }
};

Status CrashedStatus() {
  return Status::IOError("storage: environment crashed (faultfs)");
}

}  // namespace

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kEio: return "eio";
    case FaultKind::kEnospc: return "enospc";
    case FaultKind::kShortWrite: return "short";
    case FaultKind::kFsyncFail: return "fsync";
    case FaultKind::kCrash: return "crash";
  }
  return "?";
}

Result<FaultKind> ParseFaultKind(const std::string& name) {
  if (name == "eio") return FaultKind::kEio;
  if (name == "enospc") return FaultKind::kEnospc;
  if (name == "short") return FaultKind::kShortWrite;
  if (name == "fsync") return FaultKind::kFsyncFail;
  if (name == "crash") return FaultKind::kCrash;
  return Status::InvalidArgument("unknown fault kind '" + name +
                                 "' (eio|enospc|short|fsync|crash)");
}

/// Write handle of FaultFsEnv: forwards to the base handle, consulting
/// the env's schedule before every mutation and maintaining the
/// last-synced-size map that powers crash simulation and fsyncgate.
class FaultFile : public WritableFile {
 public:
  FaultFile(FaultFsEnv* env, std::unique_ptr<WritableFile> base,
            std::string path, uint64_t size)
      : env_(env), base_(std::move(base)), path_(std::move(path)),
        size_(size) {}

  Status Append(std::string_view data) override {
    if (poisoned_) {
      return Status::IOError(
          "storage: writes after a failed fsync are refused (fsyncgate) "
          "on " + path_);
    }
    FaultKind injected = FaultKind::kEio;
    uint64_t allowed = data.size();
    const Status st =
        env_->CheckMutation(path_, data.size(), &injected, &allowed);
    if (st.ok()) {
      HER_RETURN_NOT_OK(base_->Append(data));
      size_ += data.size();
      return Status::OK();
    }
    // Short writes (scheduled or an exhausted ENOSPC budget) persist a
    // torn prefix before failing — the damage recovery must tolerate.
    if (allowed > 0) {
      const Status wrote = base_->Append(data.substr(0, allowed));
      if (wrote.ok()) size_ += allowed;
    }
    return st;
  }

  Status Sync() override {
    if (poisoned_) {
      return Status::IOError(
          "storage: fsync previously failed (fsyncgate) on " + path_);
    }
    FaultKind injected = FaultKind::kEio;
    uint64_t allowed = 0;
    const Status st = env_->CheckMutation(path_, 0, &injected, &allowed);
    if (!st.ok()) {
      if (injected == FaultKind::kFsyncFail) {
        // fsyncgate: the dirty pages this fsync covered are LOST, not
        // retried — drop them from the real file and poison the handle
        // so no later write can silently land after the hole.
        env_->PoisonAfterFailedSync(path_);
        poisoned_ = true;
      }
      return st;
    }
    HER_RETURN_NOT_OK(base_->Sync());
    env_->MarkSynced(path_, size_);
    return Status::OK();
  }

  Status Close() override { return base_->Close(); }

 private:
  FaultFsEnv* env_;
  std::unique_ptr<WritableFile> base_;
  std::string path_;
  uint64_t size_;
  bool poisoned_ = false;
};

FaultFsEnv::FaultFsEnv(Env* base, FaultFsPlan plan)
    : base_(base), plan_(std::move(plan)) {}

void FaultFsEnv::set_plan(FaultFsPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = std::move(plan);
}

FaultFsStats FaultFsEnv::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

bool FaultFsEnv::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

void FaultFsEnv::EnterCrash() {
  // Called with mu_ held. Drop every unsynced suffix: what a power cut
  // does to dirty pages, made deterministic. Completed renames stay (the
  // data under them was synced before the rename — AtomicWriteFile's
  // ordering contract).
  crashed_ = true;
  stats_.crashed = true;
  for (const auto& [path, synced] : synced_size_) {
    (void)base_->TruncateFile(path, synced);
  }
}

void FaultFsEnv::PoisonAfterFailedSync(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.files_poisoned;
  const auto it = synced_size_.find(path);
  (void)base_->TruncateFile(path, it == synced_size_.end() ? 0 : it->second);
}

void FaultFsEnv::MarkSynced(const std::string& path, uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  synced_size_[path] = size;
}

Status FaultFsEnv::CheckMutation(const std::string& path, uint64_t bytes,
                                 FaultKind* injected, uint64_t* allowed) {
  std::lock_guard<std::mutex> lock(mu_);
  *allowed = 0;
  if (crashed_) return CrashedStatus();
  if (!plan_.path_filter.empty() &&
      path.find(plan_.path_filter) == std::string::npos) {
    stats_.bytes_written += bytes;
    *allowed = bytes;
    return Status::OK();
  }
  const uint64_t op = ++stats_.mutating_ops;

  FaultKind kind = FaultKind::kEio;
  bool fault = false;
  if (plan_.fail_at_op > 0 && op >= plan_.fail_at_op &&
      op - plan_.fail_at_op < plan_.fail_op_count) {
    fault = true;
    kind = plan_.fail_kind;
  } else if (plan_.write_fail_prob > 0.0 &&
             HashToUniform(Mix64(plan_.seed ^ Mix64(op ^ 0xfa157f5))) <
                 plan_.write_fail_prob) {
    fault = true;
    kind = FaultKind::kEio;
  } else if (plan_.enospc_after_bytes > 0 &&
             stats_.bytes_written + bytes > plan_.enospc_after_bytes) {
    // Budgeted disk-full: the bytes that still fit land on disk (a torn
    // suffix), the rest fail — how a real ENOSPC tears a write.
    ++stats_.faults_injected;
    *injected = FaultKind::kEnospc;
    *allowed = plan_.enospc_after_bytes - stats_.bytes_written;
    stats_.bytes_written += *allowed;
    return Status::ResourceExhausted(
        "storage: no space left on device (injected) writing " + path);
  }

  if (!fault) {
    stats_.bytes_written += bytes;
    *allowed = bytes;
    return Status::OK();
  }

  ++stats_.faults_injected;
  // A kind that cannot apply to this op class degrades to plain EIO
  // (e.g. a scheduled fsync fault landing on a write op).
  if (bytes > 0 && kind == FaultKind::kFsyncFail) kind = FaultKind::kEio;
  if (bytes == 0 && kind == FaultKind::kShortWrite) kind = FaultKind::kEio;
  *injected = kind;
  switch (kind) {
    case FaultKind::kCrash:
      EnterCrash();
      return Status::IOError("storage: simulated crash (faultfs) at op " +
                             std::to_string(op) + " on " + path);
    case FaultKind::kEnospc:
      return Status::ResourceExhausted(
          "storage: no space left on device (injected) on " + path);
    case FaultKind::kShortWrite:
      *allowed = bytes / 2;
      stats_.bytes_written += *allowed;
      return Status::IOError("storage: injected short write on " + path);
    case FaultKind::kFsyncFail:
      return Status::IOError("storage: injected fsync failure on " + path);
    case FaultKind::kEio:
    default:
      return Status::IOError("storage: injected I/O error on " + path);
  }
}

Status FaultFsEnv::CheckRead(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return CrashedStatus();
  if (!plan_.path_filter.empty() &&
      path.find(plan_.path_filter) == std::string::npos) {
    return Status::OK();
  }
  const uint64_t op = ++stats_.read_ops;
  if (plan_.read_fail_prob > 0.0 &&
      HashToUniform(Mix64(plan_.seed ^ Mix64(op ^ 0x4ead0f5))) <
          plan_.read_fail_prob) {
    ++stats_.faults_injected;
    return Status::IOError("storage: injected read error on " + path);
  }
  return Status::OK();
}

Result<std::unique_ptr<WritableFile>> FaultFsEnv::NewWritableFile(
    const std::string& path) {
  FaultKind injected = FaultKind::kEio;
  uint64_t allowed = 0;
  HER_RETURN_NOT_OK(CheckMutation(path, 0, &injected, &allowed));
  HER_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                       base_->NewWritableFile(path));
  {
    // A freshly created (or truncated) file has nothing durable yet: a
    // crash before its first successful sync leaves it empty on disk.
    std::lock_guard<std::mutex> lock(mu_);
    synced_size_[path] = 0;
  }
  return std::unique_ptr<WritableFile>(
      new FaultFile(this, std::move(base), path, 0));
}

Result<std::unique_ptr<WritableFile>> FaultFsEnv::NewAppendableFile(
    const std::string& path, uint64_t* size) {
  FaultKind injected = FaultKind::kEio;
  uint64_t allowed = 0;
  HER_RETURN_NOT_OK(CheckMutation(path, 0, &injected, &allowed));
  HER_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                       base_->NewAppendableFile(path, size));
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The pre-existing prefix is durable; only appends past it are at
    // risk. Keep a stricter (smaller) recorded sync point if one exists.
    const auto it = synced_size_.find(path);
    if (it == synced_size_.end()) synced_size_[path] = *size;
  }
  return std::unique_ptr<WritableFile>(
      new FaultFile(this, std::move(base), path, *size));
}

Result<std::string> FaultFsEnv::ReadFileToString(const std::string& path) {
  HER_RETURN_NOT_OK(CheckRead(path));
  return base_->ReadFileToString(path);
}

Result<std::string> FaultFsEnv::ReadFilePrefix(const std::string& path,
                                               size_t n) {
  HER_RETURN_NOT_OK(CheckRead(path));
  return base_->ReadFilePrefix(path, n);
}

bool FaultFsEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Result<uint64_t> FaultFsEnv::FileSize(const std::string& path) {
  HER_RETURN_NOT_OK(CheckRead(path));
  return base_->FileSize(path);
}

Status FaultFsEnv::RenameFile(const std::string& from, const std::string& to) {
  FaultKind injected = FaultKind::kEio;
  uint64_t allowed = 0;
  // A crash scheduled AT the rename fires before it happens: the target
  // keeps its old content and the source stays behind as debris — the
  // "crash between tmp-write and rename" cell of the soak matrix.
  HER_RETURN_NOT_OK(CheckMutation(to, 0, &injected, &allowed));
  HER_RETURN_NOT_OK(base_->RenameFile(from, to));
  std::lock_guard<std::mutex> lock(mu_);
  // The renamed file's bytes were synced under its old name; whatever
  // entry the target had describes a replaced inode. Neither needs (or
  // may receive) crash truncation any more.
  const auto it = synced_size_.find(from);
  if (it != synced_size_.end()) {
    synced_size_[to] = it->second;
    synced_size_.erase(from);
  } else {
    synced_size_.erase(to);
  }
  return Status::OK();
}

Status FaultFsEnv::RemoveFile(const std::string& path) {
  FaultKind injected = FaultKind::kEio;
  uint64_t allowed = 0;
  HER_RETURN_NOT_OK(CheckMutation(path, 0, &injected, &allowed));
  HER_RETURN_NOT_OK(base_->RemoveFile(path));
  std::lock_guard<std::mutex> lock(mu_);
  synced_size_.erase(path);
  return Status::OK();
}

Status FaultFsEnv::TruncateFile(const std::string& path, uint64_t size) {
  FaultKind injected = FaultKind::kEio;
  uint64_t allowed = 0;
  HER_RETURN_NOT_OK(CheckMutation(path, 0, &injected, &allowed));
  HER_RETURN_NOT_OK(base_->TruncateFile(path, size));
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = synced_size_.find(path);
  if (it != synced_size_.end()) it->second = std::min(it->second, size);
  return Status::OK();
}

Status FaultFsEnv::SyncDir(const std::string& dir) {
  FaultKind injected = FaultKind::kEio;
  uint64_t allowed = 0;
  HER_RETURN_NOT_OK(CheckMutation(dir, 0, &injected, &allowed));
  return base_->SyncDir(dir);
}

Result<std::vector<std::string>> FaultFsEnv::ListDir(const std::string& dir) {
  HER_RETURN_NOT_OK(CheckRead(dir));
  return base_->ListDir(dir);
}

}  // namespace her
