#ifndef NWC_COMMON_STRING_UTIL_H_
#define NWC_COMMON_STRING_UTIL_H_

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace nwc {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Formats a byte count with a binary-unit suffix ("312.5 KiB", "4.0 MiB").
std::string HumanBytes(uint64_t bytes);

/// Formats a count with thousands separators ("1,234,567").
std::string WithThousandsSeparators(uint64_t value);

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> Split(const std::string& text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string Trim(const std::string& text);

/// Parses `text` whole: no sign on an unsigned type, no surrounding
/// blanks, no trailing text, no overflow.
template <typename T>
std::optional<T> ParseNumber(std::string_view text) {
  T value{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) return std::nullopt;
  return value;
}

/// ParseNumber<double> that also rejects NaN and the infinities.
std::optional<double> ParseFinite(std::string_view text);

}  // namespace nwc

#endif  // NWC_COMMON_STRING_UTIL_H_
