#include "util/fault_fs.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace staccato {
namespace util {

FaultInjector* FaultInjector::Global() {
  static FaultInjector injector;
  return &injector;
}

void FaultInjector::Install(FaultRule rule) {
  util::MutexLock lock(&mu_);
  rules_.push_back(std::move(rule));
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::Clear() {
  util::MutexLock lock(&mu_);
  rules_.clear();
  armed_.store(false, std::memory_order_release);
}

void FaultInjector::Seed(uint64_t seed) {
  util::MutexLock lock(&mu_);
  // Never let the splitmix state be 0 (it would stay 0 forever).
  rng_state_ = seed != 0 ? seed : 0x9e3779b97f4a7c15ull;
}

namespace {
/// splitmix64 step: the deterministic uniform draw behind probabilistic
/// rules. Cheap, seedable, and good enough for fault soaking.
uint64_t NextRand(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
}  // namespace

bool FaultInjector::ShouldFail(FaultOp op, const std::string& path,
                               size_t* short_bytes) {
  if (!armed_.load(std::memory_order_acquire)) return false;
  util::MutexLock lock(&mu_);
  for (size_t i = 0; i < rules_.size(); ++i) {
    FaultRule& rule = rules_[i];
    if (rule.op != op) continue;
    if (!rule.path_substr.empty() &&
        path.find(rule.path_substr) == std::string::npos) {
      continue;
    }
    if (rule.probability > 0.0) {
      // Soak mode: an independent coin per matching operation; the rule
      // stays installed until Clear.
      const double draw = static_cast<double>(NextRand(&rng_state_) >> 11) *
                          (1.0 / 9007199254740992.0);  // [0, 1), 53 bits
      if (draw >= rule.probability) continue;
      if (short_bytes != nullptr) *short_bytes = rule.short_bytes;
      return true;
    }
    if (rule.countdown > 0) {
      --rule.countdown;
      continue;
    }
    if (short_bytes != nullptr) *short_bytes = rule.short_bytes;
    if (!rule.sticky) {
      rules_.erase(rules_.begin() + static_cast<ptrdiff_t>(i));
      if (rules_.empty()) armed_.store(false, std::memory_order_release);
    }
    return true;
  }
  return false;
}

Status CheckedWrite(FILE* file, const void* data, size_t n,
                    const std::string& path) {
  size_t short_bytes = 0;
  if (FaultInjector::Global()->ShouldFail(FaultOp::kWrite, path,
                                          &short_bytes)) {
    if (short_bytes > 0 && short_bytes < n) {
      // A torn write: persist the prefix so recovery tests see realistic
      // partially-written bytes, then report failure.
      if (fwrite(data, 1, short_bytes, file) == short_bytes) {
        (void)fflush(file);
      }
    }
    return Status::IOError("injected write fault: " + path);
  }
  if (n != 0 && fwrite(data, 1, n, file) != n) {
    return Status::IOError("short write: " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status CheckedFlush(FILE* file, const std::string& path) {
  if (FaultInjector::Global()->ShouldFail(FaultOp::kFlush, path, nullptr)) {
    return Status::IOError("injected flush fault: " + path);
  }
  if (fflush(file) != 0) {
    return Status::IOError("fflush failed: " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status CheckedPRead(int fd, void* buf, size_t n, uint64_t offset,
                    const std::string& path) {
  if (FaultInjector::Global()->ShouldFail(FaultOp::kRead, path, nullptr)) {
    return Status::IOError("injected read fault: " + path);
  }
  char* out = static_cast<char*>(buf);
  while (n > 0) {
    ssize_t r = pread(fd, out, n, static_cast<off_t>(offset));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread: " + path + ": " + std::strerror(errno));
    }
    if (r == 0) return Status::IOError("short read past end of " + path);
    out += r;
    offset += static_cast<uint64_t>(r);
    n -= static_cast<size_t>(r);
  }
  return Status::OK();
}

Status CheckedSync(FILE* file, const std::string& path) {
  STACCATO_RETURN_NOT_OK(CheckedFlush(file, path));
  if (FaultInjector::Global()->ShouldFail(FaultOp::kSync, path, nullptr)) {
    return Status::IOError("injected sync fault: " + path);
  }
  if (fsync(fileno(file)) != 0) {
    return Status::IOError("fsync failed: " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status SyncDir(const std::string& dir) {
  if (FaultInjector::Global()->ShouldFail(FaultOp::kDirSync, dir, nullptr)) {
    return Status::IOError("injected directory sync fault: " + dir);
  }
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError("cannot open directory " + dir + ": " +
                           std::strerror(errno));
  }
  const int rc = fsync(fd);
  const int err = errno;
  close(fd);
  if (rc != 0) {
    return Status::IOError("fsync failed: " + dir + ": " + std::strerror(err));
  }
  return Status::OK();
}

Status WriteFileAtomic(const std::string& dir, const std::string& path,
                       std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  FILE* f = fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot create " + tmp + ": " +
                           std::strerror(errno));
  }
  Status st = CheckedWrite(f, bytes.data(), bytes.size(), tmp);
  if (st.ok()) st = CheckedSync(f, tmp);
  fclose(f);
  if (!st.ok()) {
    std::remove(tmp.c_str());
    return st;
  }
  // The atomic commit point: readers see either the old file or the new
  // one, never a torn write.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot commit " + path);
  }
  return SyncDir(dir);
}

Result<std::string> ReadFile(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) {
    const int err = errno;
    const std::string msg = "cannot open " + path + ": " + std::strerror(err);
    if (err == ENOENT) return Status::NotFound(msg);
    return Status::IOError(msg);
  }
  std::string data;
  char buf[1 << 16];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  const bool read_error = ferror(f) != 0;
  fclose(f);
  if (read_error) return Status::IOError("cannot read " + path);
  return data;
}

}  // namespace util
}  // namespace staccato
