// Small string utilities shared across modules (splitting, trimming,
// numeric parsing with Status-based errors, printf-style formatting).

#ifndef IMCF_COMMON_STRINGS_H_
#define IMCF_COMMON_STRINGS_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace imcf {

/// Splits `text` on `sep`; keeps empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view text, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string Trim(std::string_view text);

/// Lowercases ASCII characters.
std::string ToLower(std::string_view text);

/// True iff `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// True iff `text` ends with `suffix`.
bool EndsWith(std::string_view text, std::string_view suffix);

/// Parses a base-10 signed integer, rejecting trailing garbage.
Result<int64_t> ParseInt(std::string_view text);

/// Parses a floating-point number, rejecting trailing garbage.
Result<double> ParseDouble(std::string_view text);

/// Longest result StrFormat formats in a single pass (into a stack
/// buffer); a longer one takes a second, sized pass.
inline constexpr size_t kStrFormatOnePassChars = 127;

/// snprintf into a std::string. Marked printf-like so the compiler checks
/// format arguments.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Joins the pieces with `sep` between them.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

}  // namespace imcf

#endif  // IMCF_COMMON_STRINGS_H_
