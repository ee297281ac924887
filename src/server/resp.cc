#include "server/resp.h"

#include <cctype>
#include <charconv>
#include <cstring>

namespace tierbase {
namespace server {

namespace {

/// Finds "\r\n" starting at `pos`; returns the index of '\r' or npos.
size_t FindCrlf(const char* buf, size_t len, size_t pos) {
  while (pos + 1 < len) {
    if (buf[pos] == '\r' && buf[pos + 1] == '\n') return pos;
    ++pos;
  }
  return std::string::npos;
}

/// Parses the signed decimal between buf[pos, end). Strict: at least one
/// digit, no junk, magnitude bounded so `v * 10` can never overflow.
bool ParseInt(const char* buf, size_t pos, size_t end, int64_t* out) {
  if (pos >= end) return false;
  bool negative = false;
  if (buf[pos] == '-') {
    negative = true;
    ++pos;
    if (pos >= end) return false;
  }
  int64_t v = 0;
  for (; pos < end; ++pos) {
    char c = buf[pos];
    if (c < '0' || c > '9') return false;
    if (v > (int64_t{1} << 56)) return false;  // Way past any legal length.
    v = v * 10 + (c - '0');
  }
  *out = negative ? -v : v;
  return true;
}

/// Splits an inline command line on spaces/tabs. Redis also honours
/// quoting here; plain whitespace splitting covers every diagnostic use
/// (PING, INFO from nc) without the quote-state machine.
void SplitInline(const char* buf, size_t pos, size_t end, RespCommand* cmd) {
  while (pos < end) {
    while (pos < end && (buf[pos] == ' ' || buf[pos] == '\t')) ++pos;
    size_t start = pos;
    while (pos < end && buf[pos] != ' ' && buf[pos] != '\t') ++pos;
    if (pos > start) cmd->args.emplace_back(buf + start, pos - start);
  }
}

/// Parses one command starting at `*pos`. Advances *pos past the frame on
/// success. Returns kNeedMore without touching *pos on a partial frame.
ParseResult ParseOne(const char* buf, size_t len, size_t* pos,
                     RespCommand* cmd, std::string* error) {
  size_t p = *pos;
  if (p >= len) return ParseResult::kNeedMore;

  if (buf[p] != '*') {
    // Inline command: one line, terminated by \r\n (tolerate bare \n).
    size_t nl = std::string::npos;
    for (size_t i = p; i < len; ++i) {
      if (buf[i] == '\n') {
        nl = i;
        break;
      }
    }
    if (nl == std::string::npos) {
      if (len - p > kMaxInlineBytes) {
        *error = "too big inline request";
        return ParseResult::kError;
      }
      return ParseResult::kNeedMore;
    }
    size_t line_end = (nl > p && buf[nl - 1] == '\r') ? nl - 1 : nl;
    SplitInline(buf, p, line_end, cmd);
    *pos = nl + 1;
    return ParseResult::kOk;  // Blank line => zero args; caller skips it.
  }

  // Multibulk: *<argc>\r\n then argc of $<len>\r\n<bytes>\r\n.
  size_t crlf = FindCrlf(buf, len, p);
  if (crlf == std::string::npos) {
    if (len - p > 32) {  // "*<number>" should have ended long ago.
      *error = "invalid multibulk length";
      return ParseResult::kError;
    }
    return ParseResult::kNeedMore;
  }
  int64_t argc = 0;
  if (!ParseInt(buf, p + 1, crlf, &argc) || argc < 0 ||
      argc > kMaxArrayElements) {
    *error = "invalid multibulk length";
    return ParseResult::kError;
  }
  p = crlf + 2;

  cmd->args.reserve(static_cast<size_t>(argc));
  for (int64_t i = 0; i < argc; ++i) {
    if (p >= len) return ParseResult::kNeedMore;
    if (buf[p] != '$') {
      *error = std::string("expected '$', got '") +
               (buf[p] >= 0x20 && buf[p] < 0x7f ? std::string(1, buf[p])
                                                : std::string("?")) +
               "'";
      return ParseResult::kError;
    }
    crlf = FindCrlf(buf, len, p);
    if (crlf == std::string::npos) {
      if (len - p > 32) {
        *error = "invalid bulk length";
        return ParseResult::kError;
      }
      return ParseResult::kNeedMore;
    }
    int64_t blen = 0;
    if (!ParseInt(buf, p + 1, crlf, &blen) || blen < 0 ||
        blen > kMaxBulkBytes) {
      // Covers the torture cases: "$-5" and absurd sizes. A request bulk
      // may not be null, unlike a reply.
      *error = "invalid bulk length";
      return ParseResult::kError;
    }
    p = crlf + 2;
    if (len - p < static_cast<size_t>(blen) + 2) return ParseResult::kNeedMore;
    if (buf[p + blen] != '\r' || buf[p + blen + 1] != '\n') {
      *error = "bulk payload not CRLF-terminated";
      return ParseResult::kError;
    }
    cmd->args.emplace_back(buf + p, static_cast<size_t>(blen));
    p += static_cast<size_t>(blen) + 2;
  }
  *pos = p;
  return ParseResult::kOk;
}

}  // namespace

ParseResult ParseRequests(const char* buf, size_t len,
                          std::vector<RespCommand>* out, size_t* consumed,
                          std::string* error) {
  size_t pos = 0;
  while (pos < len) {
    RespCommand cmd;
    ParseResult r = ParseOne(buf, len, &pos, &cmd, error);
    if (r == ParseResult::kError) return r;
    if (r == ParseResult::kNeedMore) break;
    // Empty inline lines ("\r\n" keepalives) parse fine but carry nothing.
    if (!cmd.args.empty()) out->push_back(std::move(cmd));
  }
  *consumed = pos;
  return ParseResult::kOk;
}

void AppendSimpleString(std::string* out, const Slice& s) {
  out->push_back('+');
  out->append(s.data(), s.size());
  out->append("\r\n");
}

void AppendError(std::string* out, const Slice& msg) {
  out->push_back('-');
  out->append(msg.data(), msg.size());
  out->append("\r\n");
}

namespace {

/// Appends `<type><v>\r\n`, a RESP number line, formatted by to_chars.
template <typename Int>
void AppendNumberLine(std::string* out, char type, Int v) {
  char buf[24];  // Sign and 20 digits at most, then CRLF.
  char* p = buf;
  *p++ = type;
  p = std::to_chars(p, buf + sizeof(buf) - 2, v).ptr;
  *p++ = '\r';
  *p++ = '\n';
  out->append(buf, static_cast<size_t>(p - buf));
}

}  // namespace

void AppendInteger(std::string* out, int64_t v) {
  AppendNumberLine(out, ':', v);
}

void AppendBulk(std::string* out, const Slice& s) {
  AppendNumberLine(out, '$', s.size());
  out->append(s.data(), s.size());
  out->append("\r\n");
}

void AppendNullBulk(std::string* out) { out->append("$-1\r\n"); }

void AppendArrayHeader(std::string* out, size_t n) {
  AppendNumberLine(out, '*', n);
}

namespace {

ParseResult ParseReplyAt(const char* buf, size_t len, size_t* pos,
                         RespValue* out, std::string* error, int depth) {
  if (depth > 8) {
    *error = "reply nesting too deep";
    return ParseResult::kError;
  }
  size_t p = *pos;
  if (p >= len) return ParseResult::kNeedMore;
  const char type = buf[p];
  size_t crlf = FindCrlf(buf, len, p);
  if (crlf == std::string::npos) return ParseResult::kNeedMore;

  switch (type) {
    case '+':
      out->type = RespValue::Type::kSimpleString;
      out->str.assign(buf + p + 1, crlf - p - 1);
      *pos = crlf + 2;
      return ParseResult::kOk;
    case '-':
      out->type = RespValue::Type::kError;
      out->str.assign(buf + p + 1, crlf - p - 1);
      *pos = crlf + 2;
      return ParseResult::kOk;
    case ':':
      out->type = RespValue::Type::kInteger;
      if (!ParseInt(buf, p + 1, crlf, &out->integer)) {
        *error = "bad integer reply";
        return ParseResult::kError;
      }
      *pos = crlf + 2;
      return ParseResult::kOk;
    case '$': {
      int64_t blen = 0;
      if (!ParseInt(buf, p + 1, crlf, &blen) || blen < -1 ||
          blen > kMaxBulkBytes) {
        *error = "bad bulk length in reply";
        return ParseResult::kError;
      }
      if (blen == -1) {
        out->type = RespValue::Type::kNull;
        *pos = crlf + 2;
        return ParseResult::kOk;
      }
      size_t body = crlf + 2;
      if (len - body < static_cast<size_t>(blen) + 2) {
        return ParseResult::kNeedMore;
      }
      if (buf[body + blen] != '\r' || buf[body + blen + 1] != '\n') {
        *error = "bulk reply not CRLF-terminated";
        return ParseResult::kError;
      }
      out->type = RespValue::Type::kBulkString;
      out->str.assign(buf + body, static_cast<size_t>(blen));
      *pos = body + static_cast<size_t>(blen) + 2;
      return ParseResult::kOk;
    }
    case '*': {
      int64_t n = 0;
      if (!ParseInt(buf, p + 1, crlf, &n) || n < -1 ||
          n > kMaxArrayElements) {
        *error = "bad array length in reply";
        return ParseResult::kError;
      }
      if (n == -1) {
        out->type = RespValue::Type::kNull;
        *pos = crlf + 2;
        return ParseResult::kOk;
      }
      out->type = RespValue::Type::kArray;
      out->elements.clear();
      out->elements.reserve(static_cast<size_t>(n));
      size_t q = crlf + 2;
      for (int64_t i = 0; i < n; ++i) {
        RespValue element;
        ParseResult r = ParseReplyAt(buf, len, &q, &element, error, depth + 1);
        if (r != ParseResult::kOk) return r;
        out->elements.push_back(std::move(element));
      }
      *pos = q;
      return ParseResult::kOk;
    }
    default:
      *error = "unexpected reply type byte";
      return ParseResult::kError;
  }
}

}  // namespace

ParseResult ParseReply(const char* buf, size_t len, RespValue* out,
                       size_t* consumed, std::string* error) {
  size_t pos = 0;
  ParseResult r = ParseReplyAt(buf, len, &pos, out, error, 0);
  if (r == ParseResult::kOk) *consumed = pos;
  return r;
}

bool EqualsUpper(const Slice& arg, const char* upper_word) {
  size_t n = strlen(upper_word);
  if (arg.size() != n) return false;
  for (size_t i = 0; i < n; ++i) {
    if (std::toupper(static_cast<unsigned char>(arg[i])) != upper_word[i]) {
      return false;
    }
  }
  return true;
}

void AppendValue(std::string* out, const RespValue& v) {
  switch (v.type) {
    case RespValue::Type::kSimpleString:
      AppendSimpleString(out, v.str);
      break;
    case RespValue::Type::kError:
      AppendError(out, v.str);
      break;
    case RespValue::Type::kInteger:
      AppendInteger(out, v.integer);
      break;
    case RespValue::Type::kBulkString:
      AppendBulk(out, v.str);
      break;
    case RespValue::Type::kNull:
      AppendNullBulk(out);
      break;
    case RespValue::Type::kArray:
      AppendArrayHeader(out, v.elements.size());
      for (const RespValue& e : v.elements) AppendValue(out, e);
      break;
  }
}

}  // namespace server
}  // namespace tierbase
