/**
 * @file
 * The one JSON codec: obs metrics, the Perfetto trace, status.json and
 * perf_regression's report and baseline all go through this writer and
 * reader.
 *
 * parseJson is strict: exactly the RFC 8259 grammar, nesting capped at
 * kJsonMaxDepth, numbers a double cannot hold rejected. Any malformed
 * input returns false; it never calls fatal() and never reads past the
 * end of its input.
 */

#ifndef CONSTABLE_COMMON_JSON_HH
#define CONSTABLE_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace constable {

/** Deepest array/object nesting parseJson accepts. */
inline constexpr size_t kJsonMaxDepth = 64;

/** Streaming emitter. Callers pair every begin with its end and precede
 *  each object member's value with key(). */
class JsonWriter
{
  public:
    /** Elements of containers nested less than @p line_depth deep go on
     *  their own lines (two-space indent); 0 writes one line. */
    explicit JsonWriter(size_t line_depth = 0) : lineDepth_(line_depth) {}

    JsonWriter& beginObject() { return open('{'); }
    JsonWriter& endObject() { return close('}'); }
    JsonWriter& beginArray() { return open('['); }
    JsonWriter& endArray() { return close(']'); }
    JsonWriter& str(std::string_view s);
    JsonWriter& u64(uint64_t v) { return raw(std::to_string(v)); }
    /** @p decimals digits after the point; non-finite values write null. */
    JsonWriter& f64(double v, int decimals);

    /** Name of the next object member. */
    JsonWriter&
    key(std::string_view k)
    {
        str(k).out_ += ':';
        afterKey_ = true;
        return *this;
    }

    /** The finished document plus a trailing newline. */
    std::string take() { return std::move(out_ += '\n'); }

  private:
    /** Append one value's text after the comma and line break it owes. */
    JsonWriter& raw(std::string_view text);
    JsonWriter& close(char c);

    JsonWriter&
    open(char c)
    {
        raw(std::string_view(&c, 1));
        nonEmpty_.push_back(false);
        return *this;
    }

    std::string out_;
    std::vector<bool> nonEmpty_; ///< per open container: has an element
    size_t lineDepth_;
    bool afterKey_ = false;
};

/** A parsed value. Objects keep their members in document order. */
struct JsonValue
{
    enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> items;  ///< array elements / member values
    std::vector<std::string> keys; ///< member names, parallel to items

    /** First member named @p key; nullptr when absent or not an object. */
    const JsonValue* find(std::string_view key) const;

    /** Member @p key as a number or a string; false (leaving @p out
     *  untouched) when absent or of another kind. */
    bool get(std::string_view key, double& out) const;
    bool get(std::string_view key, std::string& out) const;
};

/** Parse one whole document (surrounding whitespace allowed). False on
 *  any malformed input; @p out is then unspecified. */
bool parseJson(std::string_view text, JsonValue& out);

} // namespace constable

#endif
