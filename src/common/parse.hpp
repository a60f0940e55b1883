// Checked numeric parsing for user-facing inputs (CLI flags, config files).
//
// The std::sto* family is the wrong tool for untrusted input: it throws on
// garbage (std::invalid_argument), throws on overflow (std::out_of_range),
// and silently accepts partial tokens ("1e99" parses as 1 via stoull,
// "0.9x" as 0.9 via stod). Every helper here instead returns false unless
// the WHOLE string is a well-formed, in-range value — no exceptions, no
// trailing garbage, no empty tokens — so callers can reject bad flags with
// a diagnostic and a usage exit instead of terminating.
//
// On top of them sits the flag table the command-line tools share: each
// front end declares every flag once (name, value kind, destination, usage
// placeholder) and parse_flags() / flag_usage() derive both the argv walk
// and the usage line from that one declaration.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/logging.hpp"

namespace camo {

/// Parse a whole base-10 signed integer. Returns false on empty input,
/// non-numeric characters, partial consumption or overflow.
[[nodiscard]] bool parse_int(const std::string& s, int& out);

/// Parse a whole base-10 unsigned 64-bit integer (no leading '-').
[[nodiscard]] bool parse_u64(const std::string& s, std::uint64_t& out);

/// Parse a whole floating-point value (decimal or scientific). Returns
/// false unless the entire string is consumed and the value is finite.
[[nodiscard]] bool parse_double(const std::string& s, double& out);

/// Parse a comma-separated list of doubles ("0.96,1.0,1.04"). Every token
/// must consume fully — empty items ("a,,b"), trailing separators ("1,")
/// and per-token garbage ("0.9x") are rejected. Returns false (leaving
/// `out` untouched) on any malformed token or an empty list.
[[nodiscard]] bool parse_double_list(const std::string& s, std::vector<double>& out);

/// Parse a log level name: quiet, info or debug.
[[nodiscard]] bool parse_log_level(const std::string& s, LogLevel& out);

// ---- Flag tables ------------------------------------------------------------

/// One command-line flag. Build it with the *_flag helpers below, which
/// bind the destination by reference (it must outlive the flag) and the
/// range check; a rejected value prints a diagnostic naming the flag and
/// leaves the destination untouched.
struct Flag {
    std::string name;  ///< e.g. "--clips"
    std::string meta;  ///< usage placeholder ("N", "PATH"); empty = switch
    bool required = false;
    /// Checked store of the value (empty for a switch); false = rejected.
    std::function<bool(const std::string&)> set;
};

Flag string_flag(std::string name, std::string& dst, std::string meta = "PATH");
/// Integer >= `min` (no lower bound by default).
Flag int_flag(std::string name, int& dst, int min = std::numeric_limits<int>::min(),
              std::string meta = "N");
Flag u64_flag(std::string name, std::uint64_t& dst, std::string meta = "S");
/// Finite double >= `min`.
Flag double_flag(std::string name, double& dst, double min, std::string meta = "X");
Flag double_list_flag(std::string name, std::vector<double>& dst,
                      std::string meta = "a,b,..");
/// Valueless flag: its presence sets `dst` to true.
Flag switch_flag(std::string name, bool& dst);
/// String restricted to `choices`; the usage placeholder lists them.
Flag choice_flag(std::string name, std::string& dst, const std::vector<std::string>& choices);
/// Enum and list flags: `set` parses, stores and diagnoses the value itself.
Flag custom_flag(std::string name, std::string meta,
                 std::function<bool(const std::string&)> set);
/// Mark a flag as mandatory (printed without brackets in the usage line).
Flag required(Flag f);

/// Walk argv[first..argc) against `flags`. Returns false after printing a
/// diagnostic on an unknown flag, a missing or rejected value, or an absent
/// required flag; the last occurrence of a repeated flag wins.
[[nodiscard]] bool parse_flags(std::span<const Flag> flags, int argc, char** argv, int first);

/// "usage: <prog> --out PATH [--clips N] [--quiet] ..." in table order
/// (optional flags bracketed), wrapped at 80 columns, newline-terminated.
std::string flag_usage(const std::string& prog, std::span<const Flag> flags);

}  // namespace camo
