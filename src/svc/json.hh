/**
 * @file
 * Minimal self-contained JSON value + parser/serializer for the
 * campaign service layer (wire protocol frames and experiment-spec
 * files). No external dependencies; the subset implemented is full
 * RFC 8259 JSON minus \uXXXX surrogate pairs outside the BMP.
 *
 * Design points that matter to the service:
 *  - objects preserve insertion order, so a value serialized with
 *    dump() round-trips byte-identically and streamed result rows are
 *    deterministic (the byte-identity contract of docs/SERVICE.md);
 *  - numbers are doubles, serialized with std::to_chars: as plain
 *    integers when integral (below 2^53), otherwise with the bytes of
 *    printf's %.17g (a round-trip-exact spelling), so equal doubles
 *    always produce equal bytes, in any locale;
 *  - parse() never throws and never aborts: malformed input returns
 *    false with a position-annotated error, which is what lets the
 *    server treat every inbound frame as hostile (tests/svc_test.cc
 *    fuzzes this path).
 */

#ifndef HIRISE_SVC_JSON_HH
#define HIRISE_SVC_JSON_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hirise::svc {

class Json
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    using Member = std::pair<std::string, Json>;

    Json() = default;
    Json(std::nullptr_t) {}
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(double n) : type_(Type::Number), num_(n) {}
    Json(int n) : type_(Type::Number), num_(n) {}
    Json(std::int64_t n)
        : type_(Type::Number), num_(static_cast<double>(n))
    {}
    Json(std::uint64_t n)
        : type_(Type::Number), num_(static_cast<double>(n))
    {}
    Json(const char *s) : type_(Type::String), str_(s) {}
    Json(std::string s) : type_(Type::String), str_(std::move(s)) {}
    Json(std::string_view s) : type_(Type::String), str_(s) {}

    static Json array() { Json j; j.type_ = Type::Array; return j; }
    static Json object() { Json j; j.type_ = Type::Object; return j; }

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    bool asBool(bool dflt = false) const
    {
        return isBool() ? bool_ : dflt;
    }
    double asNumber(double dflt = 0.0) const
    {
        return isNumber() ? num_ : dflt;
    }
    const std::string &
    asString() const
    {
        static const std::string empty;
        return isString() ? str_ : empty;
    }

    const std::vector<Json> &
    items() const
    {
        static const std::vector<Json> empty;
        return isArray() ? arr_ : empty;
    }
    const std::vector<Member> &
    members() const
    {
        static const std::vector<Member> empty;
        return isObject() ? obj_ : empty;
    }

    std::size_t
    size() const
    {
        if (isArray())
            return arr_.size();
        if (isObject())
            return obj_.size();
        return 0;
    }

    /** Object member by key (null reference when absent / not an
     *  object). Lookup is linear: service objects are small. */
    const Json &operator[](std::string_view key) const;
    bool has(std::string_view key) const;

    /** Array element (null reference when out of range). */
    const Json &at(std::size_t i) const;

    /** Append to an array (value must be an array). */
    void push(Json v);
    /** Set (insert or overwrite) an object member, preserving the
     *  original insertion position on overwrite. */
    void set(std::string_view key, Json v);
    /** Mutable member access for in-place merge/override editing;
     *  creates the member (null) when absent. */
    Json &ref(std::string_view key);

    /** Compact single-line serialization (no whitespace). */
    std::string dump() const;
    void dumpTo(std::string &out) const;

    /**
     * Parse @p text into @p out. On failure returns false and, when
     * @p err is non-null, stores a message with the byte offset.
     * Trailing non-whitespace after the top-level value is an error.
     * Nesting beyond kMaxDepth is rejected (stack safety on hostile
     * input).
     */
    static bool parse(std::string_view text, Json *out,
                      std::string *err = nullptr);

    static constexpr int kMaxDepth = 64;

  private:
    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<Member> obj_;
};

/** Escape @p s as a JSON string literal (with quotes) onto @p out. */
void appendJsonString(std::string &out, std::string_view s);

/** Append the canonical spelling of @p v onto @p out without
 *  allocating beyond @p out's growth: integers below 2^53 print as
 *  integers (-0.0 as "0"), other finite values as %.17g would, and
 *  inf/NaN as null. Shared by dump() and the row serializer; equal
 *  doubles yield equal bytes. */
void appendNumber(std::string &out, double v);

} // namespace hirise::svc

#endif // HIRISE_SVC_JSON_HH
