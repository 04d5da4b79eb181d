#include "common/json.hpp"

#include <ostream>

namespace bt {

std::ostream&
operator<<(std::ostream& os, JsonEscaped escaped)
{
    static constexpr char kHex[] = "0123456789abcdef";
    const std::string_view s = escaped.text;
    // Bytes that need no escape go out in runs, not one at a time.
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        os.write(s.data() + run, static_cast<std::streamsize>(i - run));
        run = i + 1;
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\b':
            os << "\\b";
            break;
          case '\f':
            os << "\\f";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\r':
            os << "\\r";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            os << "\\u00" << kHex[c >> 4] << kHex[c & 0xf];
        }
    }
    os.write(s.data() + run, static_cast<std::streamsize>(s.size() - run));
    return os;
}

} // namespace bt
