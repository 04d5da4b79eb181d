/**
 * @file
 * The one JSON module (RFC 8259): a strict reader and a compact
 * streaming writer. Every document the library and bt_explorer emit -
 * Chrome trace, lint, checker, serving and deploy reports, fault plans
 * - goes through Writer; the fault plan, the one JSON input from
 * outside the program, and the reports the tests inspect are read by
 * parse(). Names in those documents are user-supplied, so the writer
 * escapes every string.
 */

#ifndef BT_COMMON_JSON_HPP
#define BT_COMMON_JSON_HPP

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bt::json {

struct Member;

/** One parsed JSON value. Only the fields of its kind are set. */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0; ///< nearest double of a Number's literal

    /** A String's decoded bytes, or a Number's literal as written. */
    std::string text;

    std::vector<Value> items;    ///< Array elements
    std::vector<Member> members; ///< Object members, in document order

    /** The member named @p name, or nullptr (also for non-objects). */
    const Value* find(std::string_view name) const;

    /** The member named @p name, which must exist (panics otherwise). */
    const Value& at(std::string_view name) const;

    /**
     * A Number whose literal is a plain integer ("7", not "7.0" or
     * "7e0") in [0, 2^64), exactly; std::nullopt for anything else.
     * number would round such a literal past 2^53.
     */
    std::optional<std::uint64_t> exactUnsigned() const;
};

struct Member
{
    std::string name;
    Value value;
};

/** Why parse() refused a document. */
struct Error
{
    std::size_t offset = 0; ///< byte offset of the offending input
    std::string message;

    /** "<message> at byte <offset>". */
    std::string toString() const;
};

/**
 * Parse one whole document by RFC 8259 and nothing looser: trailing
 * garbage, a leading '+' or zero, raw control characters, lone
 * surrogates, ill-formed UTF-8 in a string (RFC 8259 section 8.1), a
 * repeated member name, a number past double's range and nesting past
 * kMaxDepth are errors. Escapes decode to UTF-8; well-formed UTF-8 is
 * taken as it is. @return the value, or std::nullopt with @p err
 * filled in.
 */
std::optional<Value> parse(std::string_view text, Error& err);

/** As above, discarding the error detail. */
std::optional<Value> parse(std::string_view text);

/** Deepest array/object nesting parse() accepts. */
inline constexpr int kMaxDepth = 512;

/**
 * Compact streaming writer: no whitespace; commas and colons placed for
 * the caller, who nests begin/end calls and keys each member. Strings
 * are escaped (quote, backslash, the \b \f \n \r \t shorthands, \u00XX
 * for other bytes below 0x20, U+FFFD for each byte of ill-formed UTF-8;
 * all else as is), so parse() takes back whatever it writes. Integers
 * are exact, and doubles are "%.17g", which round-trips; non-finite
 * doubles are null.
 */
class Writer
{
  public:
    explicit Writer(std::ostream& os) : os_(os) {}

    Writer& beginObject() { return put("{", true, false); }
    Writer& endObject() { return put("}", false, true); }
    Writer& beginArray() { return put("[", true, false); }
    Writer& endArray() { return put("]", false, true); }

    /** The name of the next object member. */
    Writer&
    key(std::string_view name)
    {
        return value(name).put(":", false, false);
    }

    Writer& value(std::string_view text);
    Writer& value(const char* text) { return value(std::string_view(text)); }
    Writer& value(bool b) { return put(b ? "true" : "false", true, true); }
    Writer& value(double d);

    template <std::integral T>
    Writer&
    value(T v)
    {
        char buf[24];
        const char* end = std::to_chars(buf, buf + sizeof buf, v).ptr;
        return put({buf, end}, true, true);
    }

    /** key(@p name) then value(@p v). */
    template <typename T>
    Writer&
    member(std::string_view name, const T& v)
    {
        return key(name).value(v);
    }

  private:
    /** Write @p token - after a ',' if it @p starts a value or key that
     *  follows a value - and note whether it @p ends a value. */
    Writer& put(std::string_view token, bool starts, bool ends);

    std::ostream& os_;
    bool comma_ = false; ///< the next value or key needs a ',' first
};

} // namespace bt::json

#endif // BT_COMMON_JSON_HPP
