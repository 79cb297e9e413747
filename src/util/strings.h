// Small string helpers shared across modules.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace staccato {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> SplitString(std::string_view s, char sep);

/// Joins strings with `sep`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// True if `hay` contains `needle` as a substring.
bool Contains(std::string_view hay, std::string_view needle);

/// Lower-cases ASCII.
std::string ToLowerAscii(std::string_view s);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Human-readable byte count, e.g. "1.5 MB".
std::string HumanBytes(uint64_t bytes);

/// The one parser of numeric STACCATO_* environment knobs: the value of
/// `name` when it is a plain decimal number no greater than `max`, else
/// `fallback`. Unset, empty, signed ("-1", "+5"), padded (" 5"), trailing
/// characters ("12abc", "1.5") and out-of-range values all read as the
/// fallback.
uint64_t EnvUint(const char* name, uint64_t fallback, uint64_t max);

}  // namespace staccato
