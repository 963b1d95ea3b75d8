// The one JSON writer (DESIGN.md §5): every document the library, the
// tools and the benches emit is serialized here and nowhere else, which
// the `json_single_writer` ctest enforces.
//
// A streaming writer appending compact JSON to a caller-owned string. It
// owns the policies that used to be copied per emitter:
//   commas    placed from the begin/key/value sequence;
//   escaping  `"` and `\` backslash-escaped, control characters below
//             0x20 as \u00XX, every other byte passed through;
//   numbers   integers exact; doubles in the shortest form that parses
//             back to the same bits (std::to_chars); inf and NaN, which
//             JSON cannot spell, as null.
//
//   JsonWriter(out).begin_object().key("rank").value(2).key("live")
//       .begin_array().value(0).value(3).end_array().end_object();
//   // out == {"rank":2,"live":[0,3]}
//
// Structure is not validated (a key outside an object, an unbalanced
// end), and nothing allocates beyond the string's own growth.
#pragma once

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>

namespace asyncit {

class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  JsonWriter& key(std::string_view k);

  JsonWriter& value(bool v) { return literal(v ? "true" : "false"); }
  /// Every integer type (int64 and uint64 included), exact.
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& value(T v) {
    char buf[24];
    return literal({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
  }
  JsonWriter& value(double v);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& null() { return literal("null"); }

 private:
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);
  JsonWriter& literal(std::string_view text);  ///< a value, verbatim

  std::string& out_;
  bool need_comma_ = false;  ///< a value or container precedes, same level
};

}  // namespace asyncit
