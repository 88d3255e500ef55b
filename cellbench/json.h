#ifndef CELLBENCH_JSON_H_
#define CELLBENCH_JSON_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace cellbench {

/// Minimal JSON object builder for the raw records the benchmark's Python
/// front end reads. Keys are plain ASCII identifiers; strings are escaped
/// for quotes and backslashes only.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    std::string quoted(1, '"');
    for (const char ch : value) {
      if (ch == '"' || ch == '\\') quoted += '\\';
      quoted += ch;
    }
    quoted += '"';
    return Raw(key, quoted);
  }
  template <typename T>
  JsonObject& Array(const std::string& key, const std::vector<T>& values) {
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", static_cast<double>(values[i]));
      if (i) out += ',';
      out += buf;
    }
    out += ']';
    return Raw(key, out);
  }
  JsonObject& Objects(const std::string& key,
                      const std::vector<JsonObject>& values) {
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i) out += ',';
      out += values[i].str();
    }
    out += ']';
    return Raw(key, out);
  }
  JsonObject& Object(const std::string& key, const JsonObject& value) {
    return Raw(key, value.str());
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  std::string str() const {
    std::string out(1, '{');
    out += body_;
    out += '}';
    return out;
  }

 private:
  std::string body_;
};

}  // namespace cellbench

#endif  // CELLBENCH_JSON_H_
