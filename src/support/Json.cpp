//===- support/Json.cpp - Minimal JSON parser -------------------------------===//

#include "support/Json.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>

using namespace ccal;

namespace {

/// Characters a JSON string cannot hold raw: the parser ends its bulk
/// runs at them, and the writer escapes them.
bool needsEscape(char C) {
  return C == '"' || C == '\\' || static_cast<unsigned char>(C) < 0x20;
}

/// The writer's spelling of number \p V, into \p Buf; returns its length.
std::size_t formatNumber(const JsonValue &V, char (&Buf)[40]) {
  if (V.IsInt)
    return static_cast<std::size_t>(
        std::to_chars(Buf, Buf + sizeof(Buf), V.IntVal).ptr - Buf);
  return static_cast<std::size_t>(
      std::snprintf(Buf, sizeof(Buf), "%.17g", V.NumVal));
}

class Parser {
public:
  Parser(const std::string &Text, std::size_t MaxDepth)
      : Text(Text), MaxDepth(MaxDepth) {}

  JsonParseResult run() {
    JsonParseResult R;
    skipWs();
    Stack.emplace_back();
    if (!parseValue(0)) {
      R.Error = "offset " + std::to_string(Pos) + ": " + Err;
      return R;
    }
    R.Value = std::move(Stack[0]);
    R.Canonical = Canonical; // trailing whitespace is not part of the value
    skipWs();
    if (Pos != Text.size()) {
      R.Error = "offset " + std::to_string(Pos) + ": trailing garbage";
      R.Canonical = false;
      return R;
    }
    R.Ok = true;
    return R;
  }

private:
  bool fail(const char *Msg) {
    if (Err.empty())
      Err = Msg;
    return false;
  }

  void skipWs() {
    const std::size_t Start = Pos;
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
    if (Pos != Start)
      Canonical = false;
  }

  bool literal(const char *Lit) {
    std::size_t P = Pos;
    for (const char *C = Lit; *C; ++C, ++P)
      if (P >= Text.size() || Text[P] != *C)
        return false;
    Pos = P;
    return true;
  }

  /// Parses one value into Stack[Slot].  Every value is parsed on the
  /// stack and named by index, because a container's children push onto
  /// the stack above it and may reallocate it.
  bool parseValue(std::size_t Slot) {
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{' || C == '[') {
      if (!enter())
        return false;
      bool Ok = C == '{' ? parseObject(Slot) : parseArray(Slot);
      --Depth;
      return Ok;
    }
    JsonValue &Out = Stack[Slot]; // scalars push nothing
    switch (C) {
    case '"':
      Out.K = JsonValue::Kind::String;
      return parseString(Out.StrVal);
    case 't':
      if (!literal("true"))
        return fail("bad literal");
      Out.K = JsonValue::Kind::Bool;
      Out.BoolVal = true;
      return true;
    case 'f':
      if (!literal("false"))
        return fail("bad literal");
      Out.K = JsonValue::Kind::Bool;
      Out.BoolVal = false;
      return true;
    case 'n':
      if (!literal("null"))
        return fail("bad literal");
      Out.K = JsonValue::Kind::Null;
      return true;
    default:
      return parseNumber(Out);
    }
  }

  /// Containers recurse; a depth past MaxDepth is an error, not a deeper
  /// recursion — adversarial input ("[[[[…" from the daemon socket) must
  /// not be able to overflow the C++ stack.
  bool enter() {
    if (Depth >= MaxDepth) {
      fail("nesting depth cap exceeded");
      return false;
    }
    ++Depth;
    return true;
  }

  bool parseObject(std::size_t Slot) {
    Stack[Slot].K = JsonValue::Kind::Object;
    ++Pos; // '{'
    skipWs();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected object key");
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != ':')
        return fail("expected ':'");
      ++Pos;
      skipWs();
      const std::size_t Field = Stack.size();
      Stack.emplace_back();
      if (!parseValue(Field))
        return false;
      // A repeated key's last value wins.  The writer emits keys in
      // strictly ascending (std::map) order; anything else is not
      // canonical.
      auto &Fields = Stack[Slot].Fields;
      auto [It, Inserted] =
          Fields.insert_or_assign(std::move(Key), std::move(Stack[Field]));
      if (!Inserted || std::next(It) != Fields.end())
        Canonical = false;
      Stack.pop_back();
      skipWs();
      if (Pos >= Text.size())
        return fail("unterminated object");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parseArray(std::size_t Slot) {
    Stack[Slot].K = JsonValue::Kind::Array;
    ++Pos; // '['
    skipWs();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    // The elements collect on the stack above the array's own slot and
    // move into one exact-size vector at the ']'.
    const std::size_t Base = Stack.size();
    while (true) {
      skipWs();
      Stack.emplace_back();
      if (!parseValue(Stack.size() - 1))
        return false;
      skipWs();
      if (Pos >= Text.size())
        return fail("unterminated array");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == ']') {
        ++Pos;
        const auto First = Stack.begin() + static_cast<std::ptrdiff_t>(Base);
        Stack[Slot].Items.assign(std::make_move_iterator(First),
                                 std::make_move_iterator(Stack.end()));
        Stack.erase(First, Stack.end());
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parseString(std::string &Out) {
    ++Pos; // '"'
    while (Pos < Text.size()) {
      // Append the run up to the next quote, backslash or control
      // character in one go.
      std::size_t End = Pos;
      while (End < Text.size() && !needsEscape(Text[End]))
        ++End;
      Out.append(Text, Pos, End - Pos);
      Pos = End;
      if (Pos >= Text.size())
        break;
      char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C == '\\') {
        ++Pos;
        if (Pos >= Text.size())
          return fail("bad escape");
        char E = Text[Pos];
        switch (E) {
        case '/':
          Canonical = false; // the writer leaves '/' unescaped
          [[fallthrough]];
        case '"':
        case '\\':
          Out += E;
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'n':
          Out += '\n';
          break;
        case 'r':
          Out += '\r';
          break;
        case 't':
          Out += '\t';
          break;
        case 'u': {
          if (Pos + 4 >= Text.size())
            return fail("bad \\u escape");
          unsigned V = 0;
          for (int I = 0; I != 4; ++I) {
            char H = Text[Pos + 1 + static_cast<std::size_t>(I)];
            V <<= 4;
            if (H >= '0' && H <= '9')
              V |= static_cast<unsigned>(H - '0');
            else if (H >= 'a' && H <= 'f')
              V |= static_cast<unsigned>(H - 'a' + 10);
            else if (H >= 'A' && H <= 'F') {
              V |= static_cast<unsigned>(H - 'A' + 10);
              Canonical = false; // the writer's hex digits are lower case
            } else
              return fail("bad \\u escape");
          }
          Pos += 4;
          // The writer spells only control characters without a short
          // escape this way.
          if (V >= 0x20 || V == '\b' || V == '\f' || V == '\n' || V == '\r' ||
              V == '\t')
            Canonical = false;
          // UTF-8 encode the BMP code point (surrogates passed through
          // as-is — trace/bench output never emits them).
          if (V < 0x80) {
            Out += static_cast<char>(V);
          } else if (V < 0x800) {
            Out += static_cast<char>(0xC0 | (V >> 6));
            Out += static_cast<char>(0x80 | (V & 0x3F));
          } else {
            Out += static_cast<char>(0xE0 | (V >> 12));
            Out += static_cast<char>(0x80 | ((V >> 6) & 0x3F));
            Out += static_cast<char>(0x80 | (V & 0x3F));
          }
          break;
        }
        default:
          return fail("bad escape");
        }
        ++Pos;
        continue;
      }
      return fail("raw control character in string");
    }
    return fail("unterminated string");
  }

  /// Characters the number scanner below takes into a token.
  static bool numberChar(char C) {
    return (C >= '0' && C <= '9') || C == '.' || C == 'e' || C == 'E' ||
           C == '+' || C == '-';
  }

  /// `[-]digits` with at most 18 digits, ending where the token ends: the
  /// value fits an int64 and converts to double exactly as strtod rounds
  /// it, so this gives the general path's verdict without its copy and
  /// two library conversions.  Anything else returns false untouched.
  bool parseSmallInt(JsonValue &Out) {
    std::size_t P = Pos;
    const bool Neg = P < Text.size() && Text[P] == '-';
    if (Neg)
      ++P;
    const std::size_t Digits = P;
    std::uint64_t Mag = 0;
    // A 19th digit shows the token is too long; Mag cannot overflow.
    while (P < Text.size() && P - Digits < 19 && Text[P] >= '0' &&
           Text[P] <= '9')
      Mag = Mag * 10 + static_cast<unsigned>(Text[P++] - '0');
    if (P == Digits || P - Digits > 18 ||
        (P < Text.size() && numberChar(Text[P])))
      return false;
    // Leading zeros and "-0" are not how the writer spells an integer.
    if ((Text[Digits] == '0' && P - Digits > 1) || (Neg && Mag == 0))
      Canonical = false;
    Pos = P;
    Out.K = JsonValue::Kind::Number;
    Out.IsInt = true;
    Out.IntVal = Neg ? -static_cast<std::int64_t>(Mag)
                     : static_cast<std::int64_t>(Mag);
    // -0 keeps its sign in the double, as strtod gives it.
    Out.NumVal = Neg ? -static_cast<double>(Mag) : static_cast<double>(Mag);
    return true;
  }

  bool parseNumber(JsonValue &Out) {
    if (parseSmallInt(Out))
      return true;
    std::size_t Start = Pos;
    bool Fractional = false;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() && numberChar(Text[Pos])) {
      if (Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E')
        Fractional = true;
      ++Pos;
    }
    if (Pos == Start)
      return fail("expected value");
    std::string Num = Text.substr(Start, Pos - Start);
    char *End = nullptr;
    Out.K = JsonValue::Kind::Number;
    Out.NumVal = std::strtod(Num.c_str(), &End);
    if (End == nullptr || *End != '\0')
      return fail("malformed number");
    // Past the double range strtod gives ±inf, which no JSON number
    // spells; refusing it keeps render∘parse a fixed point.
    if (std::isinf(Out.NumVal))
      return fail("number out of range");
    if (!Fractional) {
      // Keep the exact 64-bit value for counters; out-of-range integer
      // literals (which this repository never writes) degrade to double.
      errno = 0;
      char *IEnd = nullptr;
      long long I = std::strtoll(Num.c_str(), &IEnd, 10);
      if (IEnd != nullptr && *IEnd == '\0' && errno == 0) {
        Out.IsInt = true;
        Out.IntVal = I;
      }
    }
    char Buf[40];
    if (std::string_view(Buf, formatNumber(Out, Buf)) != Num)
      Canonical = false;
    return true;
  }

  const std::string &Text;
  const std::size_t MaxDepth;
  std::size_t Pos = 0;
  std::size_t Depth = 0;
  std::string Err;
  /// Values being parsed: each open container's slot, and above it the
  /// elements parsed so far.
  std::vector<JsonValue> Stack;
  bool Canonical = true; ///< see JsonParseResult::Canonical
};

} // namespace

JsonParseResult ccal::parseJson(const std::string &Text,
                                std::size_t MaxDepth) {
  return Parser(Text, MaxDepth).run();
}

JsonValue ccal::jsonNull() { return JsonValue(); }

JsonValue ccal::jsonBool(bool V) {
  JsonValue J;
  J.K = JsonValue::Kind::Bool;
  J.BoolVal = V;
  return J;
}

JsonValue ccal::jsonInt(std::int64_t V) {
  JsonValue J;
  J.K = JsonValue::Kind::Number;
  J.IsInt = true;
  J.IntVal = V;
  J.NumVal = static_cast<double>(V);
  return J;
}

JsonValue ccal::jsonUInt(std::uint64_t V) {
  return jsonInt(static_cast<std::int64_t>(V));
}

JsonValue ccal::jsonNum(double V) {
  JsonValue J;
  J.K = JsonValue::Kind::Number;
  J.NumVal = V;
  return J;
}

JsonValue ccal::jsonStr(std::string V) {
  JsonValue J;
  J.K = JsonValue::Kind::String;
  J.StrVal = std::move(V);
  return J;
}

JsonValue ccal::jsonArray(std::vector<JsonValue> Items) {
  JsonValue J;
  J.K = JsonValue::Kind::Array;
  J.Items = std::move(Items);
  return J;
}

namespace {

void writeString(std::string &Out, std::string_view S) {
  Out += '"';
  const char *P = S.data(), *End = P + S.size();
  while (P != End) {
    // Escape-free runs go out in one append.
    const char *Run = P;
    while (Run != End && !needsEscape(*Run))
      ++Run;
    Out.append(P, Run);
    if (Run == End)
      break;
    const char C = *Run;
    P = Run + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default: {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                    static_cast<unsigned char>(C));
      Out += Buf;
    }
    }
  }
  Out += '"';
}

void writeValue(std::string &Out, const JsonValue &V) {
  switch (V.K) {
  case JsonValue::Kind::Null:
    Out += "null";
    break;
  case JsonValue::Kind::Bool:
    Out += V.BoolVal ? "true" : "false";
    break;
  case JsonValue::Kind::Number: {
    char Buf[40];
    Out.append(Buf, formatNumber(V, Buf));
    break;
  }
  case JsonValue::Kind::String:
    writeString(Out, V.StrVal);
    break;
  case JsonValue::Kind::Array: {
    Out += '[';
    bool First = true;
    for (const JsonValue &Item : V.Items) {
      if (!First)
        Out += ',';
      First = false;
      writeValue(Out, Item);
    }
    Out += ']';
    break;
  }
  case JsonValue::Kind::Object: {
    Out += '{';
    bool First = true;
    for (const auto &[Key, Field] : V.Fields) {
      if (!First)
        Out += ',';
      First = false;
      writeString(Out, Key);
      Out += ':';
      writeValue(Out, Field);
    }
    Out += '}';
    break;
  }
  }
}

} // namespace

std::string ccal::jsonToString(const JsonValue &V) {
  std::string Out;
  writeValue(Out, V);
  return Out;
}

void ccal::jsonAppend(std::string &Out, const JsonValue &V) {
  writeValue(Out, V);
}

void ccal::jsonAppendString(std::string &Out, std::string_view S) {
  writeString(Out, S);
}
