#include "common/json.hpp"

#include <cmath>
#include <ostream>
#include <system_error>
#include <unordered_set>

#include "common/logging.hpp"

namespace bt::json {

namespace {

/** The shorthand escapes: the byte after '\\', and what it stands for
 *  ('/' is read but never written). */
constexpr std::string_view kEscaped = "\"\\bfnrt/";
constexpr std::string_view kUnescaped = "\"\\\b\f\n\r\t/";

/** Append code point @p cp (< 0x110000) to @p out as UTF-8. */
void
appendUtf8(std::string& out, unsigned cp)
{
    if (cp < 0x80) {
        out += static_cast<char>(cp);
        return;
    }
    const int n = cp < 0x800 ? 2 : cp < 0x10000 ? 3 : 4; // bytes
    const unsigned lead = (0xff00u >> n) & 0xffu; // 110..., 1110..., ...
    out += static_cast<char>(lead | (cp >> (6 * (n - 1))));
    for (int i = n - 2; i >= 0; --i)
        out += static_cast<char>(0x80u | ((cp >> (6 * i)) & 0x3fu));
}

/**
 * Length of the well-formed UTF-8 sequence at the front of @p s, whose
 * first byte is >= 0x80; 0 when the bytes are what RFC 3629 refuses
 * (Unicode Table 3-7): a stray continuation byte, 0xC0/0xC1, 0xF5-0xFF,
 * an overlong form, an encoded surrogate or a truncated sequence.
 */
std::size_t
utf8Length(std::string_view s)
{
    const auto lead = static_cast<unsigned char>(s[0]);
    // Continuation bytes, and the range the first one must fall in.
    std::size_t n = 0;
    unsigned lo = 0x80;
    unsigned hi = 0xbf;
    if (lead >= 0xc2 && lead <= 0xdf) {
        n = 1;
    } else if (lead >= 0xe0 && lead <= 0xef) {
        n = 2;
        lo = lead == 0xe0 ? 0xa0 : lo; // overlong
        hi = lead == 0xed ? 0x9f : hi; // surrogates
    } else if (lead >= 0xf0 && lead <= 0xf4) {
        n = 3;
        lo = lead == 0xf0 ? 0x90 : lo; // overlong
        hi = lead == 0xf4 ? 0x8f : hi; // past U+10FFFF
    } else {
        return 0;
    }
    if (s.size() <= n)
        return 0;
    for (std::size_t i = 1; i <= n; ++i, lo = 0x80, hi = 0xbf) {
        const auto b = static_cast<unsigned char>(s[i]);
        if (b < lo || b > hi)
            return 0;
    }
    return n + 1;
}

/** Recursive descent over one document; the first failure wins. */
class Reader
{
  public:
    explicit Reader(std::string_view text) : s_(text) {}

    bool
    document(Value& out)
    {
        ws();
        if (!value(out, 0))
            return false;
        ws();
        return pos_ == s_.size()
            || fail("unexpected characters after the document");
    }

    Error error;

  private:
    /** Record a failure at the current offset. */
    bool
    fail(std::string message)
    {
        error = {pos_, std::move(message)};
        return false;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    /** Consume @p c (never '\0') if it is next. */
    bool
    eat(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    void
    ws()
    {
        while (eat(' ') || eat('\t') || eat('\n') || eat('\r')) {
        }
    }

    /** A value at nesting level @p depth (0 = the document itself). */
    bool
    value(Value& out, int depth)
    {
        const char c = peek();
        if (pos_ == s_.size())
            return fail("unexpected end of input");
        if (c == '{' || c == '[') {
            if (depth == kMaxDepth)
                return fail(detail::concat("nesting deeper than ",
                                           kMaxDepth, " levels"));
            return container(out, depth + 1);
        }
        if (c == '"') {
            out.kind = Value::Kind::String;
            return string(out.text);
        }
        if (c == 't' || c == 'f') {
            out.kind = Value::Kind::Bool;
            out.boolean = c == 't';
            return word(out.boolean ? "true" : "false");
        }
        return c == 'n' ? word("null") : number(out);
    }

    bool
    word(std::string_view w)
    {
        if (s_.substr(pos_, w.size()) != w)
            return fail("invalid literal");
        pos_ += w.size();
        return true;
    }

    /** One or more digits, or a failure saying @p what was expected. */
    bool
    digits(const char* what)
    {
        const std::size_t start = pos_;
        while (peek() >= '0' && peek() <= '9')
            ++pos_;
        return pos_ > start || fail(what);
    }

    bool
    number(Value& out)
    {
        const std::size_t start = pos_;
        eat('-');
        if (!eat('0') && !digits("expected a value"))
            return false;
        if (eat('.') && !digits("expected a digit after '.'"))
            return false;
        if (eat('e') || eat('E')) {
            if (!eat('+'))
                eat('-');
            if (!digits("expected an exponent digit"))
                return false;
        }
        out.kind = Value::Kind::Number;
        out.text = s_.substr(start, pos_ - start);
        const char* end = out.text.data() + out.text.size();
        if (std::from_chars(out.text.data(), end, out.number).ec
            == std::errc())
            return true;
        pos_ = start;
        return fail("number out of range");
    }

    bool
    hex4(unsigned& cp)
    {
        const char* p = s_.data() + pos_;
        if (s_.size() - pos_ < 4
            || std::from_chars(p, p + 4, cp, 16).ptr != p + 4)
            return fail("expected four hex digits after \\u");
        pos_ += 4;
        return true;
    }

    /** The rest of a \u escape; joins a surrogate pair. */
    bool
    unicode(std::string& out)
    {
        unsigned cp = 0;
        if (!hex4(cp))
            return false;
        if (cp >= 0xd800 && cp < 0xdc00) {
            unsigned low = 0;
            if (!eat('\\') || !eat('u'))
                return fail("unpaired surrogate");
            if (!hex4(low))
                return false;
            if (low < 0xdc00 || low >= 0xe000)
                return fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
        } else if (cp >= 0xdc00 && cp < 0xe000) {
            return fail("unpaired surrogate");
        }
        appendUtf8(out, cp);
        return true;
    }

    bool
    string(std::string& out)
    {
        ++pos_; // opening quote
        while (!eat('"')) {
            if (pos_ >= s_.size())
                return fail("unterminated string");
            const char c = s_[pos_];
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in a string");
            if (static_cast<unsigned char>(c) >= 0x80) {
                const std::size_t n = utf8Length(s_.substr(pos_));
                if (n == 0)
                    return fail("ill-formed UTF-8 sequence");
                out.append(s_.substr(pos_, n));
                pos_ += n;
                continue;
            }
            ++pos_;
            if (c != '\\') {
                out += c;
                continue;
            }
            const auto k = kEscaped.find(peek());
            if (k != std::string_view::npos) {
                out += kUnescaped[k];
                ++pos_;
            } else if (!eat('u')) {
                return fail("invalid escape");
            } else if (!unicode(out)) {
                return false;
            }
        }
        return true;
    }

    /** An array or object, its opening bracket next. */
    bool
    container(Value& out, int depth)
    {
        const bool object = peek() == '{';
        const char close = object ? '}' : ']';
        out.kind = object ? Value::Kind::Object : Value::Kind::Array;
        std::unordered_set<std::string> names;
        ++pos_;
        ws();
        if (eat(close))
            return true;
        while (true) {
            Value* slot = nullptr;
            if (!object) {
                slot = &out.items.emplace_back();
            } else {
                const std::size_t at = pos_;
                Member& m = out.members.emplace_back();
                if (peek() != '"')
                    return fail("expected a member name");
                if (!string(m.name))
                    return false;
                // A repeated name is an error, not last-one-wins.
                if (!names.insert(m.name).second) {
                    pos_ = at;
                    return fail(detail::concat("duplicate member \"",
                                               m.name, '"'));
                }
                ws();
                if (!eat(':'))
                    return fail("expected ':'");
                ws();
                slot = &m.value;
            }
            if (!value(*slot, depth))
                return false;
            ws();
            if (eat(close))
                return true;
            if (!eat(','))
                return fail(detail::concat("expected ',' or '", close, "'"));
            ws();
        }
    }

    std::string_view s_;
    std::size_t pos_ = 0;
};

} // namespace

const Value*
Value::find(std::string_view name) const
{
    for (const Member& m : members)
        if (m.name == name)
            return &m.value;
    return nullptr;
}

const Value&
Value::at(std::string_view name) const
{
    const Value* v = find(name);
    BT_ASSERT(v != nullptr, "no member \"", name, '"');
    return *v;
}

std::optional<std::uint64_t>
Value::exactUnsigned() const
{
    std::uint64_t v = 0;
    const char* end = text.data() + text.size();
    const auto res = std::from_chars(text.data(), end, v);
    if (kind != Kind::Number || res.ec != std::errc() || res.ptr != end)
        return std::nullopt;
    return v;
}

std::string
Error::toString() const
{
    return detail::concat(message, " at byte ", offset);
}

std::optional<Value>
parse(std::string_view text, Error& err)
{
    Reader reader(text);
    Value root;
    if (reader.document(root))
        return root;
    err = std::move(reader.error);
    return std::nullopt;
}

std::optional<Value>
parse(std::string_view text)
{
    Error err;
    return parse(text, err);
}

Writer&
Writer::value(std::string_view text)
{
    static constexpr char kHex[] = "0123456789abcdef";
    put("\"", true, false);
    // Bytes that need no escape go out in runs, not one at a time.
    std::size_t run = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const auto c = static_cast<unsigned char>(text[i]);
        if (c >= 0x80) {
            if (const std::size_t n = utf8Length(text.substr(i))) {
                i += n - 1;
                continue;
            }
        } else if (c >= 0x20 && c != '"' && c != '\\') {
            continue;
        }
        os_.write(text.data() + run, static_cast<std::streamsize>(i - run));
        run = i + 1;
        const auto k = kUnescaped.find(static_cast<char>(c));
        if (c >= 0x80)
            os_ << "\xef\xbf\xbd"; // U+FFFD, so the reader takes it
        else if (k != std::string_view::npos)
            os_ << '\\' << kEscaped[k];
        else
            os_ << "\\u00" << kHex[c >> 4] << kHex[c & 0xf];
    }
    os_.write(text.data() + run,
              static_cast<std::streamsize>(text.size() - run));
    return put("\"", false, true);
}

Writer&
Writer::value(double d)
{
    if (!std::isfinite(d))
        return put("null", true, true);
    char buf[32];
    const char* end = std::to_chars(buf, buf + sizeof buf, d,
                                    std::chars_format::general, 17)
                          .ptr;
    return put({buf, end}, true, true);
}

Writer&
Writer::put(std::string_view token, bool starts, bool ends)
{
    if (starts && comma_)
        os_ << ',';
    os_ << token;
    comma_ = ends;
    return *this;
}

} // namespace bt::json
