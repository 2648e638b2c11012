#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace rdmasem::obs {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  out += json_escape(s);
  out += '"';
  return out;
}

std::string json_num(double v, int precision) {
  if (!std::isfinite(v)) return "0";  // JSON has no NaN/Inf
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string us_from_ps(std::uint64_t ps) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%llu.%06llu",
                static_cast<unsigned long long>(ps / 1000000),
                static_cast<unsigned long long>(ps % 1000000));
  return buf;
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f.write(content.data(), static_cast<std::streamsize>(content.size()));
  return static_cast<bool>(f);
}

}  // namespace rdmasem::obs
