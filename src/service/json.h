// Hardened flat-JSON field scanners, shared by the NDJSON client protocol
// and the supervisor/worker wire protocol.
//
// Both protocols restrict messages to one-level objects with string, number
// and boolean values, so a field scanner is all the parsing needed — but
// the input is untrusted (a client can write anything into the socket), so
// every accessor is bounded: string values are length-capped, unterminated
// strings are rejected, and callers bound whole-message size before
// scanning (kMaxRequestBytes). Nothing here allocates proportionally to
// attacker-chosen numbers.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace s35::service::json {

// Upper bound on one request/frame payload. Anything longer is rejected
// with a typed protocol error before parsing (see protocol.cpp/wire.cpp).
inline constexpr std::size_t kMaxRequestBytes = 64 * 1024;

// Upper bound on a single string field value. Paths, kernel names and
// messages all fit comfortably; anything longer is malformed by fiat.
inline constexpr std::size_t kMaxStringField = 4096;

// Locates the value position of `"key":` in `s`. False when absent.
bool find_value(const std::string& s, std::string_view key, std::size_t* pos);

// Readers of the value that starts at `pos`, as find_value locates it. A
// string is false when unterminated or longer than kMaxStringField (a
// bounds violation, not a silent truncation); a number is false when it is
// not one, is out of T's range (never a clamped value), is signed for an
// unsigned T (never wrapped), or is not finite.
bool read_string(const std::string& s, std::size_t pos, std::string* out);
bool read_bool(const std::string& s, std::size_t pos, bool* out);
template <class T>
bool read_number(const std::string& s, std::size_t pos, T* out) {
  T v{};
  if (std::from_chars(s.data() + pos, s.data() + s.size(), v).ec != std::errc{})
    return false;
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

// find_value + read_*: false when the key is absent or its value malformed.
bool get_string(const std::string& s, std::string_view key, std::string* out);
bool get_bool(const std::string& s, std::string_view key, bool* out);
inline bool get_int(const std::string& s, std::string_view key, std::int64_t* out) {
  std::size_t p = 0;
  return find_value(s, key, &p) && read_number(s, p, out);
}
inline bool get_uint(const std::string& s, std::string_view key, std::uint64_t* out) {
  std::size_t p = 0;
  return find_value(s, key, &p) && read_number(s, p, out);
}
inline bool get_double(const std::string& s, std::string_view key, double* out) {
  std::size_t p = 0;
  return find_value(s, key, &p) && read_number(s, p, out);
}

// Escapes `"` and `\` and strips control characters for embedding into a
// JSON string literal.
std::string escape(const std::string& s);

}  // namespace s35::service::json
