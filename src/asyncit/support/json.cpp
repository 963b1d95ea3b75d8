#include "asyncit/support/json.hpp"

#include <cmath>

namespace asyncit {

JsonWriter& JsonWriter::open(char bracket) {
  literal({&bracket, 1});
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  out_ += bracket;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::literal(std::string_view text) {
  if (need_comma_) out_ += ',';
  out_ += text;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  value(k);
  out_ += ':';
  need_comma_ = false;  // the value that follows takes no comma
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) return null();
  char buf[32];  // the shortest round-trip form needs at most 24
  return literal({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
}

JsonWriter& JsonWriter::value(std::string_view v) {
  static constexpr char kHex[] = "0123456789abcdef";
  literal("\"");  // the comma, if one is due, and the opening quote
  for (const char c : v) {
    const auto u = static_cast<unsigned char>(c);
    if (u < 0x20) {
      const char esc[6] = {'\\', 'u', '0', '0', kHex[u >> 4], kHex[u & 15]};
      out_.append(esc, sizeof esc);
    } else {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

}  // namespace asyncit
