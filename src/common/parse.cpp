#include "common/parse.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

namespace camo {
namespace {

template <typename T>
bool parse_whole(const std::string& s, T& out) {
    if (s.empty()) return false;
    T value{};
    const char* begin = s.data();
    const char* end = begin + s.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || ptr != end) return false;
    out = value;
    return true;
}

}  // namespace

bool parse_int(const std::string& s, int& out) { return parse_whole(s, out); }

bool parse_u64(const std::string& s, std::uint64_t& out) {
    // from_chars on unsigned types accepts a leading '-' (it negates modulo
    // 2^64); reject it explicitly so "--seed -1" fails loudly.
    if (!s.empty() && s.front() == '-') return false;
    return parse_whole(s, out);
}

bool parse_double(const std::string& s, double& out) {
    double value = 0.0;
    if (!parse_whole(s, value) || !std::isfinite(value)) return false;
    out = value;
    return true;
}

bool parse_double_list(const std::string& s, std::vector<double>& out) {
    std::vector<double> parsed;
    std::size_t pos = 0;
    while (true) {
        const std::size_t comma = s.find(',', pos);
        const std::size_t end = comma == std::string::npos ? s.size() : comma;
        double v = 0.0;
        if (!parse_double(s.substr(pos, end - pos), v)) return false;  // empty or garbage token
        parsed.push_back(v);
        if (comma == std::string::npos) break;
        pos = comma + 1;
    }
    if (parsed.empty()) return false;
    out = std::move(parsed);
    return true;
}

bool parse_log_level(const std::string& s, LogLevel& out) {
    if (s == "quiet") {
        out = LogLevel::kQuiet;
    } else if (s == "info") {
        out = LogLevel::kInfo;
    } else if (s == "debug") {
        out = LogLevel::kDebug;
    } else {
        return false;
    }
    return true;
}

Flag string_flag(std::string name, std::string& dst, std::string meta) {
    return {std::move(name), std::move(meta), false, [&dst](const std::string& v) {
                dst = v;
                return true;
            }};
}

Flag int_flag(std::string name, int& dst, int min, std::string meta) {
    return {name, std::move(meta), false, [name, &dst, min](const std::string& v) {
                int x = 0;
                if (!parse_int(v, x)) {
                    std::fprintf(stderr, "%s: expected an integer, got '%s'\n", name.c_str(),
                                 v.c_str());
                    return false;
                }
                if (x < min) {
                    std::fprintf(stderr, "%s: must be >= %d, got %d\n", name.c_str(), min, x);
                    return false;
                }
                dst = x;
                return true;
            }};
}

Flag u64_flag(std::string name, std::uint64_t& dst, std::string meta) {
    return {name, std::move(meta), false, [name, &dst](const std::string& v) {
                if (parse_u64(v, dst)) return true;
                std::fprintf(stderr, "%s: expected an unsigned integer, got '%s'\n",
                             name.c_str(), v.c_str());
                return false;
            }};
}

Flag double_flag(std::string name, double& dst, double min, std::string meta) {
    return {name, std::move(meta), false, [name, &dst, min](const std::string& v) {
                double x = 0.0;
                if (!parse_double(v, x)) {
                    std::fprintf(stderr, "%s: expected a number, got '%s'\n", name.c_str(),
                                 v.c_str());
                    return false;
                }
                if (x < min) {
                    std::fprintf(stderr, "%s: must be >= %g, got %g\n", name.c_str(), min, x);
                    return false;
                }
                dst = x;
                return true;
            }};
}

Flag double_list_flag(std::string name, std::vector<double>& dst, std::string meta) {
    return {name, std::move(meta), false, [name, &dst](const std::string& v) {
                if (parse_double_list(v, dst)) return true;
                std::fprintf(stderr,
                             "%s: expected a comma-separated list of numbers "
                             "(e.g. 0.96,1.0,1.04), got '%s'\n",
                             name.c_str(), v.c_str());
                return false;
            }};
}

Flag switch_flag(std::string name, bool& dst) {
    return {std::move(name), "", false, [&dst](const std::string&) {
                dst = true;
                return true;
            }};
}

Flag choice_flag(std::string name, std::string& dst, const std::vector<std::string>& choices) {
    std::string meta;
    for (const std::string& c : choices) {
        if (!meta.empty()) meta += '|';
        meta += c;
    }
    return {name, meta, false, [name, meta, choices, &dst](const std::string& v) {
                if (std::find(choices.begin(), choices.end(), v) != choices.end()) {
                    dst = v;
                    return true;
                }
                std::fprintf(stderr, "%s: expected one of %s, got '%s'\n", name.c_str(),
                             meta.c_str(), v.c_str());
                return false;
            }};
}

Flag custom_flag(std::string name, std::string meta,
                 std::function<bool(const std::string&)> set) {
    return {std::move(name), std::move(meta), false, std::move(set)};
}

Flag required(Flag f) {
    f.required = true;
    return f;
}

bool parse_flags(std::span<const Flag> flags, int argc, char** argv, int first) {
    std::vector<bool> seen(flags.size(), false);
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto it = std::find_if(flags.begin(), flags.end(),
                                     [&arg](const Flag& f) { return f.name == arg; });
        if (it == flags.end()) {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            return false;
        }
        std::string value;
        if (!it->meta.empty()) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: missing value\n", arg.c_str());
                return false;
            }
            value = argv[++i];
        }
        if (!it->set(value)) return false;
        seen[static_cast<std::size_t>(it - flags.begin())] = true;
    }
    for (std::size_t f = 0; f < flags.size(); ++f) {
        if (flags[f].required && !seen[f]) {
            std::fprintf(stderr, "missing required flag %s\n", flags[f].name.c_str());
            return false;
        }
    }
    return true;
}

std::string flag_usage(const std::string& prog, std::span<const Flag> flags) {
    constexpr std::size_t kWidth = 80;
    std::string out = "usage: ";
    out += prog;
    // Continuation lines align under the first flag, indented at most 24
    // columns so a long program name still leaves room for the flags.
    const std::string indent(std::min<std::size_t>(out.size() + 1, 24), ' ');
    std::size_t line_start = 0;
    for (const Flag& f : flags) {
        std::string item = f.required ? "" : "[";
        item += f.name;
        if (!f.meta.empty()) {
            item += ' ';
            item += f.meta;
        }
        if (!f.required) item += ']';
        if (out.size() - line_start + 1 + item.size() > kWidth) {
            out += '\n';
            line_start = out.size();
            out += indent;
        } else {
            out += ' ';
        }
        out += item;
    }
    out += '\n';
    return out;
}

}  // namespace camo
