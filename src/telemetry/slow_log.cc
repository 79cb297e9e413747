#include "telemetry/slow_log.h"

#include <cstdio>
#include <cstdlib>
#include <sys/stat.h>
#include <utility>

#include "util/strings.h"

namespace staccato::telemetry {

namespace {

uint64_t FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace

SlowQueryLog::SlowQueryLog(Config config) : config_(std::move(config)) {}

SlowQueryLog& SlowQueryLog::Global() {
  static SlowQueryLog* g = [] {
    Config c;
    c.threshold_ms = EnvUint("STACCATO_SLOW_QUERY_MS", 0, UINT64_MAX);
    const char* path = std::getenv("STACCATO_SLOW_QUERY_LOG");
    c.path = (path != nullptr && path[0] != '\0') ? path
                                                  : "staccato_slow.log";
    // The MiB cap is bounded so the shift to bytes cannot wrap to 0.
    c.max_bytes = EnvUint("STACCATO_SLOW_LOG_MB", 16, UINT64_MAX >> 20) << 20;
    return new SlowQueryLog(std::move(c));
  }();
  return *g;
}

void SlowQueryLog::Append(const std::string& entry) {
  if (config_.path.empty()) return;
  util::MutexLock lock(&mu_);
  if (!sized_) {
    // Resume an existing file's size once; afterwards we track appends
    // ourselves to avoid a stat per entry.
    current_bytes_ = FileSize(config_.path);
    sized_ = true;
  }
  const uint64_t add = entry.size() + (entry.empty() || entry.back() != '\n');
  if (current_bytes_ > 0 && current_bytes_ + add > config_.max_bytes) {
    // Rotate: the previous generation is overwritten, so disk usage stays
    // under 2x max_bytes.
    const std::string old = config_.path + ".1";
    std::remove(old.c_str());
    std::rename(config_.path.c_str(), old.c_str());
    current_bytes_ = 0;
  }
  std::FILE* f = std::fopen(config_.path.c_str(), "a");
  if (f == nullptr) return;
  std::fwrite(entry.data(), 1, entry.size(), f);
  if (add > entry.size()) std::fputc('\n', f);
  std::fclose(f);
  current_bytes_ += add;
}

}  // namespace staccato::telemetry
