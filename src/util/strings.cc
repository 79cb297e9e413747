#include "util/strings.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace staccato {

std::vector<std::string> SplitString(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool Contains(std::string_view hay, std::string_view needle) {
  return hay.find(needle) != std::string_view::npos;
}

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::string StringPrintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

std::string HumanBytes(uint64_t bytes) {
  const char* units[] = {"B", "kB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  return StringPrintf("%.1f %s", v, units[u]);
}

uint64_t EnvUint(const char* name, uint64_t fallback, uint64_t max) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  uint64_t v = 0;
  for (const char* p = env; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return fallback;
    const uint64_t digit = static_cast<uint64_t>(*p - '0');
    // v * 10 + digit <= max, without overflowing uint64_t.
    if (digit > max || v > (max - digit) / 10) return fallback;
    v = v * 10 + digit;
  }
  return v;
}

}  // namespace staccato
