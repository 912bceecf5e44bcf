#include "common/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace constable {

JsonWriter&
JsonWriter::raw(std::string_view text)
{
    if (!afterKey_ && !nonEmpty_.empty()) {
        if (nonEmpty_.back())
            out_ += ',';
        nonEmpty_.back() = true;
        if (nonEmpty_.size() <= lineDepth_)
            out_.append("\n").append(2 * nonEmpty_.size(), ' ');
    }
    afterKey_ = false;
    out_ += text;
    return *this;
}

JsonWriter&
JsonWriter::close(char c)
{
    bool broke = nonEmpty_.back() && nonEmpty_.size() <= lineDepth_;
    nonEmpty_.pop_back();
    if (broke)
        out_.append("\n").append(2 * nonEmpty_.size(), ' ');
    out_ += c;
    return *this;
}

JsonWriter&
JsonWriter::str(std::string_view s)
{
    std::string q = "\"";
    for (char c : s) {
        char esc[8];
        if (c == '"' || c == '\\')
            q += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            q += c;
        else
            q.append(esc, std::snprintf(esc, sizeof(esc), "\\u%04x", c));
    }
    return raw(q += '"');
}

JsonWriter&
JsonWriter::f64(double v, int decimals)
{
    char buf[400]; // fixed notation: at most 309 integer digits
    auto r = std::to_chars(buf, buf + sizeof(buf), v,
                           std::chars_format::fixed, decimals);
    bool ok = std::isfinite(v) && r.ec == std::errc();
    return raw(ok ? std::string_view(buf, r.ptr - buf) : "null");
}

const JsonValue*
JsonValue::find(std::string_view key) const
{
    for (size_t i = 0; i < keys.size(); ++i) {
        if (keys[i] == key)
            return &items[i];
    }
    return nullptr;
}

bool
JsonValue::get(std::string_view key, double& out) const
{
    const JsonValue* v = find(key);
    return v && v->kind == Kind::Number && (out = v->number, true);
}

bool
JsonValue::get(std::string_view key, std::string& out) const
{
    const JsonValue* v = find(key);
    return v && v->kind == Kind::String && (out = v->str, true);
}

namespace {

using Kind = JsonValue::Kind;

/** Recursive descent over one document. Every read is bounds-checked
 *  against the view; recursion stops at kJsonMaxDepth. */
class Parser
{
  public:
    explicit Parser(std::string_view s) : s_(s) {}

    bool
    document(JsonValue& v)
    {
        return value(v, 0) && (skipWs(), at_ == s_.size());
    }

  private:
    /** Consume @p c if it is the next byte. */
    bool skip(char c) { return at_ < s_.size() && s_[at_] == c && ++at_; }

    void
    skipWs()
    {
        while (skip(' ') || skip('\t') || skip('\n') || skip('\r')) {
        }
    }

    bool eat(char c) { return skipWs(), skip(c); }

    bool
    literal(std::string_view word)
    {
        bool hit = s_.substr(at_, word.size()) == word;
        at_ += hit ? word.size() : 0;
        return hit;
    }

    bool
    value(JsonValue& v, size_t depth)
    {
        skipWs();
        switch (at_ < s_.size() ? s_[at_] : '\0') {
          case '\0': return false;
          case '{': return container(v, depth, Kind::Object, '}');
          case '[': return container(v, depth, Kind::Array, ']');
          case '"': v.kind = Kind::String; return string(v.str);
          case 'f': v.kind = Kind::Bool; return literal("false");
          case 'n': return literal("null");
          case 't':
            v.kind = Kind::Bool;
            v.boolean = true;
            return literal("true");
          default: v.kind = Kind::Number; return number(v.number);
        }
    }

    /** An array, or an object (each element preceded by "key":). */
    bool
    container(JsonValue& v, size_t depth, Kind kind, char close)
    {
        if (depth >= kJsonMaxDepth)
            return false;
        v.kind = kind;
        ++at_;
        if (eat(close))
            return true;
        do {
            if (kind == Kind::Object &&
                (skipWs(), at_ == s_.size() || s_[at_] != '"' ||
                 !string(v.keys.emplace_back()) || !eat(':')))
                return false;
            if (!value(v.items.emplace_back(), depth + 1))
                return false;
        } while (eat(','));
        return eat(close);
    }

    bool
    digits()
    {
        size_t from = at_;
        while (at_ < s_.size() && s_[at_] >= '0' && s_[at_] <= '9')
            ++at_;
        return at_ > from;
    }

    /** RFC 8259 number syntax first: from_chars alone would also take
     *  "inf", "nan", ".5" and "01". */
    bool
    number(double& out)
    {
        size_t from = at_;
        skip('-');
        if ((!skip('0') && !digits()) || (skip('.') && !digits()))
            return false;
        if (skip('e') || skip('E')) {
            if (!skip('+'))
                skip('-');
            if (!digits())
                return false;
        }
        auto r = std::from_chars(s_.data() + from, s_.data() + at_, out);
        return r.ec == std::errc() && r.ptr == s_.data() + at_;
    }

    bool
    hex4(uint32_t& cp)
    {
        if (s_.size() - at_ < 4)
            return false;
        const char* p = s_.data() + at_;
        at_ += 4;
        return std::from_chars(p, p + 4, cp, 16).ptr == p + 4;
    }

    /** The rest of a \u escape, surrogate pairs joined, as UTF-8. */
    bool
    unicodeEscape(std::string& out)
    {
        uint32_t cp = 0, lo = 0;
        if (!hex4(cp) || (cp >= 0xdc00 && cp < 0xe000))
            return false; // lone low surrogate
        if (cp >= 0xd800 && cp < 0xdc00) {
            if (!literal("\\u") || !hex4(lo) || lo < 0xdc00 || lo >= 0xe000)
                return false;
            cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
        }
        // n continuation bytes; a multi-byte lead carries n + 1 high ones.
        int n = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
        out += static_cast<char>(n ? ((0xff80 >> n) & 0xff) | (cp >> (6 * n))
                                   : cp);
        for (int i = n - 1; i >= 0; --i)
            out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3f));
        return true;
    }

    bool
    string(std::string& out)
    {
        static constexpr std::string_view kEsc = "\"\\/bfnrt";
        static constexpr std::string_view kChar = "\"\\/\b\f\n\r\t";
        ++at_;
        while (at_ < s_.size()) {
            char c = s_[at_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20 || at_ == s_.size())
                return false;
            if (c != '\\') {
                out += c;
            } else if (size_t e = kEsc.find(s_[at_++]); e != kEsc.npos) {
                out += kChar[e];
            } else if (s_[at_ - 1] != 'u' || !unicodeEscape(out)) {
                return false;
            }
        }
        return false;
    }

    std::string_view s_;
    size_t at_ = 0;
};

} // namespace

bool
parseJson(std::string_view text, JsonValue& out)
{
    out = JsonValue {};
    return Parser(text).document(out);
}

} // namespace constable
