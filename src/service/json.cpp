#include "service/json.h"

#include <cctype>

namespace s35::service::json {

bool find_value(const std::string& s, std::string_view key, std::size_t* pos) {
  // Matches `"key"` without building it: find the key, then its quotes.
  for (std::size_t at = s.find(key); at != std::string::npos; at = s.find(key, at + 1)) {
    std::size_t p = at + key.size();
    if (at == 0 || s[at - 1] != '"' || p >= s.size() || s[p] != '"') continue;
    ++p;
    while (p < s.size() && std::isspace(static_cast<unsigned char>(s[p]))) ++p;
    if (p < s.size() && s[p] == ':') {
      ++p;
      while (p < s.size() && std::isspace(static_cast<unsigned char>(s[p]))) ++p;
      *pos = p;
      return true;
    }
  }
  return false;
}

bool read_string(const std::string& s, std::size_t p, std::string* out) {
  if (p >= s.size() || s[p] != '"') return false;
  std::string v;
  for (++p; p < s.size() && s[p] != '"'; ++p) {
    if (s[p] == '\\' && p + 1 < s.size()) ++p;  // keep escaped char verbatim
    if (v.size() >= kMaxStringField) return false;  // oversized field
    v.push_back(s[p]);
  }
  if (p >= s.size()) return false;  // unterminated
  *out = v;
  return true;
}

bool read_bool(const std::string& s, std::size_t p, bool* out) {
  if (s.compare(p, 4, "true") == 0) {
    *out = true;
    return true;
  }
  if (s.compare(p, 5, "false") == 0) {
    *out = false;
    return true;
  }
  return false;
}

bool get_string(const std::string& s, std::string_view key, std::string* out) {
  std::size_t p = 0;
  return find_value(s, key, &p) && read_string(s, p, out);
}

bool get_bool(const std::string& s, std::string_view key, bool* out) {
  std::size_t p = 0;
  return find_value(s, key, &p) && read_bool(s, p, out);
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace s35::service::json
