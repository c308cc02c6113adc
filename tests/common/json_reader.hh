/**
 * @file
 * A minimal JSON reader for the tests: it parses what this codebase
 * wrote itself (results files, Chrome traces) so a test can check the
 * document rather than its bytes. It accepts the subset
 * util::JsonWriter emits plus standard whitespace, and reports
 * malformed input through ok() instead of exceptions.
 *
 * Not a general-purpose parser: \uXXXX escapes cover the BMP (decoded
 * to UTF-8); surrogate pairs are rejected as malformed rather than
 * silently mangled, numbers go via std::strtod.
 */

#ifndef REST_TESTS_COMMON_JSON_READER_HH
#define REST_TESTS_COMMON_JSON_READER_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rest::util
{

/** One parsed JSON value; a tagged union over the standard kinds. */
struct JsonValue
{
    enum Kind { Null, Bool, Number, String, Array, Object } kind = Null;
    bool boolean = false;
    double number = 0;
    std::string str;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> members;

    bool has(const std::string &key) const
    { return members.count(key) != 0; }

    /** Member lookup; a missing key yields a shared Null value. */
    const JsonValue &at(const std::string &key) const;

    std::uint64_t u64() const { return std::uint64_t(number); }
};

/**
 * Parse a complete JSON document. Check ok() before trusting the
 * result: on malformed input parse() returns whatever was recovered
 * and ok() is false.
 */
class JsonReader
{
  public:
    explicit JsonReader(std::string text) : s_(std::move(text)) {}

    JsonValue parse();
    bool ok() const { return ok_; }

  private:
    void skipWs();
    char peek();
    void expect(char c);
    JsonValue parseValue();
    JsonValue parseObject();
    JsonValue parseArray();
    JsonValue parseString();
    JsonValue parseBool();
    JsonValue parseNull();
    JsonValue parseNumber();

    std::string s_; ///< owned: callers may pass temporaries
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/**
 * Read and parse `path`. Returns a Null JsonValue with `ok` set false
 * when the file is missing, unreadable or malformed.
 */
JsonValue readJsonFile(const std::string &path, bool *ok);

} // namespace rest::util

#endif // REST_TESTS_COMMON_JSON_READER_HH
