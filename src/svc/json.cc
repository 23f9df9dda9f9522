#include "svc/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hirise::svc {

namespace {

const Json kNull;

} // namespace

const Json &
Json::operator[](std::string_view key) const
{
    if (isObject()) {
        for (const auto &[k, v] : obj_) {
            if (k == key)
                return v;
        }
    }
    return kNull;
}

bool
Json::has(std::string_view key) const
{
    if (!isObject())
        return false;
    for (const auto &[k, v] : obj_) {
        (void)v;
        if (k == key)
            return true;
    }
    return false;
}

const Json &
Json::at(std::size_t i) const
{
    if (isArray() && i < arr_.size())
        return arr_[i];
    return kNull;
}

void
Json::push(Json v)
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    if (type_ == Type::Array)
        arr_.push_back(std::move(v));
}

void
Json::set(std::string_view key, Json v)
{
    ref(key) = std::move(v);
}

Json &
Json::ref(std::string_view key)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    // Callers only reach here for objects; degrade gracefully on type
    // confusion by resetting to an object (parse never does this).
    if (type_ != Type::Object) {
        *this = object();
    }
    for (auto &[k, v] : obj_) {
        if (k == key)
            return v;
    }
    obj_.emplace_back(std::string(key), Json());
    return obj_.back().second;
}

void
appendJsonString(std::string &out, std::string_view s)
{
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

void
appendNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        // JSON has no inf/nan; serialize as null (never produced by
        // the row serializer, which filters these upstream).
        out += "null";
        return;
    }
    char buf[32];
    char *end;
    // Integers below 2^53 are exact in a long long. -0.0 converts to
    // 0: both name the same simulation quantity everywhere in this
    // codebase (see SimCache::key), so both spell "0".
    if (std::fabs(v) < 0x1p53 && std::trunc(v) == v) {
        end = std::to_chars(buf, buf + sizeof(buf),
                            static_cast<long long>(v))
                  .ptr;
    } else {
        // general with precision 17 is printf's %.17g in the C
        // locale; 17 significant digits round-trip every double.
        end = std::to_chars(buf, buf + sizeof(buf), v,
                            std::chars_format::general, 17)
                  .ptr;
    }
    out.append(buf, end);
}

void
Json::dumpTo(std::string &out) const
{
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Number:
        appendNumber(out, num_);
        break;
      case Type::String:
        appendJsonString(out, str_);
        break;
      case Type::Array:
        out += '[';
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                out += ',';
            arr_[i].dumpTo(out);
        }
        out += ']';
        break;
      case Type::Object:
        out += '{';
        for (std::size_t i = 0; i < obj_.size(); ++i) {
            if (i)
                out += ',';
            appendJsonString(out, obj_[i].first);
            out += ':';
            obj_[i].second.dumpTo(out);
        }
        out += '}';
        break;
    }
}

std::string
Json::dump() const
{
    std::string out;
    dumpTo(out);
    return out;
}

namespace {

struct Parser
{
    std::string_view text;
    std::size_t pos = 0;
    std::string err;

    bool
    fail(const std::string &msg)
    {
        if (err.empty())
            err = msg + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    literal(std::string_view word)
    {
        if (text.compare(pos, word.size(), word) != 0)
            return fail("invalid literal");
        pos += word.size();
        return true;
    }

    bool
    parseString(std::string *out)
    {
        if (pos >= text.size() || text[pos] != '"')
            return fail("expected string");
        ++pos;
        out->clear();
        while (pos < text.size()) {
            unsigned char c = text[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c == '\\') {
                if (pos + 1 >= text.size())
                    return fail("truncated escape");
                char e = text[pos + 1];
                pos += 2;
                switch (e) {
                  case '"': *out += '"'; break;
                  case '\\': *out += '\\'; break;
                  case '/': *out += '/'; break;
                  case 'b': *out += '\b'; break;
                  case 'f': *out += '\f'; break;
                  case 'n': *out += '\n'; break;
                  case 'r': *out += '\r'; break;
                  case 't': *out += '\t'; break;
                  case 'u': {
                    if (pos + 4 > text.size())
                        return fail("truncated \\u escape");
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = text[pos + i];
                        cp <<= 4;
                        if (h >= '0' && h <= '9')
                            cp |= unsigned(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            cp |= unsigned(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            cp |= unsigned(h - 'A' + 10);
                        else
                            return fail("bad \\u escape digit");
                    }
                    pos += 4;
                    if (cp >= 0xd800 && cp <= 0xdfff)
                        return fail("surrogate \\u escape unsupported");
                    // UTF-8 encode the BMP code point.
                    if (cp < 0x80) {
                        *out += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        *out += static_cast<char>(0xc0 | (cp >> 6));
                        *out += static_cast<char>(0x80 | (cp & 0x3f));
                    } else {
                        *out += static_cast<char>(0xe0 | (cp >> 12));
                        *out += static_cast<char>(0x80 |
                                                  ((cp >> 6) & 0x3f));
                        *out += static_cast<char>(0x80 | (cp & 0x3f));
                    }
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
                continue;
            }
            if (c < 0x20)
                return fail("raw control character in string");
            *out += static_cast<char>(c);
            ++pos;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(double *out)
    {
        std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        auto digits = [&]() {
            std::size_t n = 0;
            while (pos < text.size() && text[pos] >= '0' &&
                   text[pos] <= '9') {
                ++pos;
                ++n;
            }
            return n;
        };
        std::size_t intDigits = digits();
        if (intDigits == 0)
            return fail("expected number");
        // JSON forbids leading zeros ("01"); tolerate them (spec
        // files written by hand), the value is unambiguous.
        if (pos < text.size() && text[pos] == '.') {
            ++pos;
            if (digits() == 0)
                return fail("digits required after decimal point");
        }
        if (pos < text.size() &&
            (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            if (digits() == 0)
                return fail("digits required in exponent");
        }
        std::string tmp(text.substr(start, pos - start));
        char *end = nullptr;
        double v = std::strtod(tmp.c_str(), &end);
        if (end != tmp.c_str() + tmp.size())
            return fail("malformed number");
        if (!std::isfinite(v))
            return fail("number out of range");
        *out = v;
        return true;
    }

    bool
    parseValue(Json *out, int depth)
    {
        if (depth > Json::kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        switch (c) {
          case 'n':
            if (!literal("null"))
                return false;
            *out = Json();
            return true;
          case 't':
            if (!literal("true"))
                return false;
            *out = Json(true);
            return true;
          case 'f':
            if (!literal("false"))
                return false;
            *out = Json(false);
            return true;
          case '"': {
            std::string s;
            if (!parseString(&s))
                return false;
            *out = Json(std::move(s));
            return true;
          }
          case '[': {
            ++pos;
            *out = Json::array();
            skipWs();
            if (pos < text.size() && text[pos] == ']') {
                ++pos;
                return true;
            }
            while (true) {
                Json v;
                if (!parseValue(&v, depth + 1))
                    return false;
                out->push(std::move(v));
                skipWs();
                if (pos >= text.size())
                    return fail("unterminated array");
                if (text[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (text[pos] == ']') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
          }
          case '{': {
            ++pos;
            *out = Json::object();
            skipWs();
            if (pos < text.size() && text[pos] == '}') {
                ++pos;
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(&key))
                    return false;
                skipWs();
                if (pos >= text.size() || text[pos] != ':')
                    return fail("expected ':'");
                ++pos;
                Json v;
                if (!parseValue(&v, depth + 1))
                    return false;
                out->set(key, std::move(v));
                skipWs();
                if (pos >= text.size())
                    return fail("unterminated object");
                if (text[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (text[pos] == '}') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
          }
          default:
            if (c == '-' || (c >= '0' && c <= '9')) {
                double v;
                if (!parseNumber(&v))
                    return false;
                *out = Json(v);
                return true;
            }
            return fail("unexpected character");
        }
    }
};

} // namespace

bool
Json::parse(std::string_view text, Json *out, std::string *err)
{
    Parser p{text, 0, {}};
    Json v;
    if (!p.parseValue(&v, 0)) {
        if (err)
            *err = p.err;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (err)
            *err = "trailing data at offset " + std::to_string(p.pos);
        return false;
    }
    *out = std::move(v);
    return true;
}

} // namespace hirise::svc
