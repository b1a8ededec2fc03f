// Token helpers shared by the two fault-schedule text formats (FaultPlan
// and DomainFaultPlan). Internal to src/faults/: not part of any public
// header's API.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string>

namespace epm::faults::text {

inline std::string trim(const std::string& s) {
  std::size_t lo = 0;
  std::size_t hi = s.size();
  while (lo < hi && std::isspace(static_cast<unsigned char>(s[lo]))) ++lo;
  while (hi > lo && std::isspace(static_cast<unsigned char>(s[hi - 1]))) --hi;
  return s.substr(lo, hi - lo);
}

/// Shortest representation that parses back to the exact same double, so
/// to_string() -> parse() round-trips fingerprint-equal even for sampled
/// plans whose times carry full mantissas.
inline std::string format_double(double value) {
  // A "+" inside scientific notation ("2e+06") would collide with the
  // '+duration' separator on re-parse, so rewrite "e+06" as "e6".
  const auto normalize = [](std::string text) {
    const auto e = text.find("e+");
    if (e != std::string::npos) {
      std::size_t digits = e + 2;
      while (digits + 1 < text.size() && text[digits] == '0') ++digits;
      text = text.substr(0, e + 1) + text.substr(digits);
    }
    return text;
  };
  std::string best;
  for (int precision : {6, 15, 16, 17}) {
    std::ostringstream out;
    out << std::setprecision(precision) << value;
    best = normalize(out.str());
    if (std::strtod(best.c_str(), nullptr) == value) {
      return best;
    }
  }
  return best;
}

/// Parses a full token as a finite double; rejects empty tokens, trailing
/// garbage ("12abc"), inf, and NaN with a message naming the bad token.
/// `noun` names the entry kind in the message ("fault entry", "grid event").
inline double parse_number(const std::string& raw, const char* field,
                           const std::string& entry, const char* noun) {
  const std::string token = trim(raw);
  if (token.empty()) {
    throw std::invalid_argument(std::string(noun) + " has empty " + field + " in '" +
                                entry + "'");
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || errno == ERANGE ||
      !std::isfinite(value)) {
    throw std::invalid_argument(std::string("bad ") + field + " token '" + token +
                                "' in " + noun + " '" + entry + "'");
  }
  return value;
}

}  // namespace epm::faults::text
