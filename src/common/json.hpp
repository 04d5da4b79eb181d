/**
 * @file
 * JSON string escaping (RFC 8259), shared by every JSON writer in the
 * library: the Chrome trace export, the lint report and the checker
 * report. Names that reach those files (stage, buffer and application
 * names, free-form notes) are user-supplied, and nothing enforces that
 * they are plain identifiers.
 */

#ifndef BT_COMMON_JSON_HPP
#define BT_COMMON_JSON_HPP

#include <iosfwd>
#include <string_view>

namespace bt {

/**
 * `os << JsonEscaped{s}` writes @p s as the body of a JSON string,
 * without the surrounding quotes: quote and backslash are escaped,
 * \b \f \n \r \t use their shorthands, and every other byte below 0x20
 * becomes \u00XX. All other bytes, UTF-8 included, pass through as they
 * are.
 */
struct JsonEscaped
{
    std::string_view text;
};

std::ostream& operator<<(std::ostream& os, JsonEscaped escaped);

} // namespace bt

#endif // BT_COMMON_JSON_HPP
