#include "common/json_reader.hh"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace rest::util
{

const JsonValue &
JsonValue::at(const std::string &key) const
{
    static const JsonValue nil;
    auto it = members.find(key);
    return it == members.end() ? nil : it->second;
}

JsonValue
JsonReader::parse()
{
    JsonValue v = parseValue();
    skipWs();
    if (pos_ != s_.size())
        ok_ = false; // trailing garbage
    return v;
}

void
JsonReader::skipWs()
{
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
        ++pos_;
}

char
JsonReader::peek()
{
    skipWs();
    if (pos_ >= s_.size()) {
        ok_ = false;
        return '\0';
    }
    return s_[pos_];
}

void
JsonReader::expect(char c)
{
    if (peek() != c)
        ok_ = false;
    else
        ++pos_;
}

JsonValue
JsonReader::parseValue()
{
    switch (peek()) {
      case '{': return parseObject();
      case '[': return parseArray();
      case '"': return parseString();
      case 't': case 'f': return parseBool();
      case 'n': return parseNull();
      default: return parseNumber();
    }
}

JsonValue
JsonReader::parseObject()
{
    JsonValue v;
    v.kind = JsonValue::Object;
    expect('{');
    if (peek() == '}') {
        ++pos_;
        return v;
    }
    while (ok_) {
        JsonValue key = parseString();
        expect(':');
        v.members.emplace(key.str, parseValue());
        if (peek() == ',') {
            ++pos_;
            continue;
        }
        break;
    }
    expect('}');
    return v;
}

JsonValue
JsonReader::parseArray()
{
    JsonValue v;
    v.kind = JsonValue::Array;
    expect('[');
    if (peek() == ']') {
        ++pos_;
        return v;
    }
    while (ok_) {
        v.items.push_back(parseValue());
        if (peek() == ',') {
            ++pos_;
            continue;
        }
        break;
    }
    expect(']');
    return v;
}

JsonValue
JsonReader::parseString()
{
    JsonValue v;
    v.kind = JsonValue::String;
    expect('"');
    while (pos_ < s_.size() && s_[pos_] != '"') {
        char c = s_[pos_++];
        if (c == '\\' && pos_ < s_.size()) {
            char e = s_[pos_++];
            switch (e) {
              case 'n': v.str += '\n'; break;
              case 't': v.str += '\t'; break;
              case 'r': v.str += '\r'; break;
              case 'b': v.str += '\b'; break;
              case 'f': v.str += '\f'; break;
              case 'u': {
                // Full BMP escape: four hex digits decoded to UTF-8.
                // Surrogate halves are a hard error — the writer
                // never emits them and decoding one alone would
                // produce invalid UTF-8 silently.
                if (pos_ + 4 > s_.size()) {
                    ok_ = false;
                    pos_ = s_.size();
                    break;
                }
                unsigned cp = 0;
                bool bad_hex = false;
                for (unsigned i = 0; i < 4; ++i) {
                    const char h = s_[pos_ + i];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= unsigned(h - 'A' + 10);
                    else
                        bad_hex = true;
                }
                pos_ += 4;
                if (bad_hex || (cp >= 0xd800 && cp <= 0xdfff)) {
                    ok_ = false;
                    break;
                }
                if (cp < 0x80) {
                    v.str += char(cp);
                } else if (cp < 0x800) {
                    v.str += char(0xc0 | (cp >> 6));
                    v.str += char(0x80 | (cp & 0x3f));
                } else {
                    v.str += char(0xe0 | (cp >> 12));
                    v.str += char(0x80 | ((cp >> 6) & 0x3f));
                    v.str += char(0x80 | (cp & 0x3f));
                }
                break;
              }
              default: v.str += e;
            }
        } else {
            v.str += c;
        }
    }
    expect('"');
    return v;
}

JsonValue
JsonReader::parseBool()
{
    JsonValue v;
    v.kind = JsonValue::Bool;
    if (s_.compare(pos_, 4, "true") == 0) {
        v.boolean = true;
        pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
        v.boolean = false;
        pos_ += 5;
    } else {
        ok_ = false;
    }
    return v;
}

JsonValue
JsonReader::parseNull()
{
    JsonValue v;
    if (s_.compare(pos_, 4, "null") == 0)
        pos_ += 4;
    else
        ok_ = false;
    return v;
}

JsonValue
JsonReader::parseNumber()
{
    JsonValue v;
    v.kind = JsonValue::Number;
    std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E'))
        ++pos_;
    if (pos_ == start) {
        ok_ = false;
        return v;
    }
    const std::string text = s_.substr(start, pos_ - start);
    char *end = nullptr;
    v.number = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size())
        ok_ = false;
    return v;
}

JsonValue
readJsonFile(const std::string &path, bool *ok)
{
    std::ifstream in(path);
    if (!in) {
        if (ok)
            *ok = false;
        return JsonValue{};
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    JsonReader reader(buf.str());
    JsonValue v = reader.parse();
    if (ok)
        *ok = reader.ok();
    return v;
}

} // namespace rest::util
