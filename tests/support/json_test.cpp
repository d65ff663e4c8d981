//===- tests/support/json_test.cpp - JSON parser edges and differentials --===//
//
// The parser's number fast path against a reference that is the general
// path written out with strtod/strtoll: over random tokens drawn from the
// number alphabet and over the hand-picked edges, both must give the same
// verdict, error text, IsInt, IntVal and NumVal bits.  Also every string
// escape, the writer-image (Canonical) flag, and the nesting caps at
// JsonMaxDepth and the wire's WireJsonMaxDepth.  A failing random token is
// dumped as kind=json_number (replay with --ccal-fuzz-replay=<file>).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "serve/Protocol.h"
#include "support/Rng.h"
#include "tests/common/fuzz_support.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

using namespace ccal;

namespace {

/// What parsing a lone number token gives.
struct NumberVerdict {
  bool Ok = false;
  std::string Error;
  std::string Reason; ///< Error without its offset (reference only)
  bool IsInt = false;
  std::int64_t IntVal = 0;
  std::uint64_t NumBits = 0;
};

std::uint64_t bitsOf(double D) {
  std::uint64_t B;
  std::memcpy(&B, &D, sizeof(B));
  return B;
}

/// The general number path on a token made only of `-+.eE0-9`: the
/// scanner takes the whole token, strtod must consume all of it without
/// overflowing to ±inf, and a token without '.', 'e' or 'E' is an integer
/// when strtoll takes it whole without overflow.
NumberVerdict referenceNumber(const std::string &Tok) {
  NumberVerdict V;
  char *End = nullptr;
  double D = std::strtod(Tok.c_str(), &End);
  if (End == nullptr || *End != '\0')
    V.Reason = "malformed number";
  else if (std::isinf(D))
    V.Reason = "number out of range";
  if (!V.Reason.empty()) {
    V.Error = "offset " + std::to_string(Tok.size()) + ": " + V.Reason;
    return V;
  }
  V.Ok = true;
  V.NumBits = bitsOf(D);
  if (Tok.find_first_of(".eE") == std::string::npos) {
    errno = 0;
    char *IEnd = nullptr;
    long long I = std::strtoll(Tok.c_str(), &IEnd, 10);
    if (IEnd != nullptr && *IEnd == '\0' && errno == 0) {
      V.IsInt = true;
      V.IntVal = I;
    }
  }
  return V;
}

NumberVerdict parsedNumber(const std::string &Tok) {
  NumberVerdict V;
  JsonParseResult P = parseJson(Tok);
  V.Ok = P.Ok;
  V.Error = P.Error;
  if (P.Ok) {
    V.IsInt = P.Value.IsInt;
    V.IntVal = P.Value.IntVal;
    V.NumBits = bitsOf(P.Value.NumVal);
  }
  return V;
}

/// Empty when the parser agrees with the reference on \p Tok, both alone
/// and as an array element; otherwise what differs.
std::string numberMismatch(const std::string &Tok) {
  NumberVerdict Want = referenceNumber(Tok), Got = parsedNumber(Tok);
  std::string Diff;
  if (Got.Ok != Want.Ok || Got.Error != Want.Error)
    Diff += " verdict '" + Got.Error + "' vs reference '" + Want.Error + "';";
  if (Got.IsInt != Want.IsInt || Got.IntVal != Want.IntVal)
    Diff += " int " + std::to_string(Got.IsInt) + "/" +
            std::to_string(Got.IntVal) + " vs reference " +
            std::to_string(Want.IsInt) + "/" + std::to_string(Want.IntVal) +
            ";";
  if (Got.NumBits != Want.NumBits)
    Diff += " NumVal bits differ;";
  // Inside an array the token ends at ']' instead of the end of input.
  JsonParseResult InArray = parseJson("[" + Tok + "]");
  if (Want.Ok) {
    if (!InArray.Ok || InArray.Value.Items.size() != 1 ||
        InArray.Value.Items[0].IsInt != Want.IsInt ||
        InArray.Value.Items[0].IntVal != Want.IntVal ||
        bitsOf(InArray.Value.Items[0].NumVal) != Want.NumBits)
      Diff += " differs as an array element;";
  } else if (InArray.Error !=
             "offset " + std::to_string(Tok.size() + 1) + ": " + Want.Reason) {
    Diff += " array-element error '" + InArray.Error + "';";
  }
  return Diff;
}

/// Random-token budget; CI's fuzz job may raise it via CCAL_FUZZ_NUMBERS.
unsigned numberBudget() {
  if (const char *Env = std::getenv("CCAL_FUZZ_NUMBERS"))
    if (unsigned N = static_cast<unsigned>(std::strtoul(Env, nullptr, 10)))
      return N;
  return 20000;
}

/// A token of 1..24 characters from `-+.eE0-9`, mostly digits so that a
/// good share of them are numbers, and some longer than 18 digits.
std::string randomNumberToken(Rng &R) {
  static const char Signs[] = "-+.eE";
  std::string Tok;
  const std::uint64_t Len = 1 + R.below(24);
  for (std::uint64_t I = 0; I != Len; ++I)
    Tok += R.chance(3, 4) ? static_cast<char>('0' + R.below(10))
                          : Signs[R.below(sizeof(Signs) - 1)];
  return Tok;
}

std::string nestedArrays(std::size_t Depth) {
  return std::string(Depth, '[') + std::string(Depth, ']');
}

std::string nestedObjects(std::size_t Depth) {
  std::string S;
  for (std::size_t I = 0; I != Depth; ++I)
    S += "{\"a\":";
  S += "1";
  return S + std::string(Depth, '}');
}

} // namespace

TEST(JsonNumberTest, EdgeTokensMatchTheStrtodReference) {
  for (const char *Tok :
       {"-", "01", "+1", "1-2", "-0", "0", "00", "-00", "--1",
        "9223372036854775807", "9223372036854775808", "-9223372036854775808",
        "-9223372036854775809", "999999999999999999", "-999999999999999999",
        "1000000000000000000", "000000000000000000001", "1e5", "1E+5", "1e-5",
        "1.5", ".5", "5.", "1e", "e1", "1..2", "1e999", "-1e999", "+", ".",
        "1.7976931348623157e308", "1.8e308", "-1e309"})
    EXPECT_EQ(numberMismatch(Tok), "") << "token: " << Tok;
}

TEST(JsonNumberTest, LargestDoubleRoundTrips) {
  // The largest finite double parses and renders back to itself; the
  // edge tokens just past it ("1.8e308", "-1e309") are rejected.
  JsonParseResult Max = parseJson("1.7976931348623157e308");
  ASSERT_TRUE(Max.Ok) << Max.Error;
  EXPECT_EQ(Max.Value.NumVal, std::numeric_limits<double>::max());
  const std::string Text = jsonToString(Max.Value);
  JsonParseResult Again = parseJson(Text);
  ASSERT_TRUE(Again.Ok) << Text << ": " << Again.Error;
  EXPECT_EQ(jsonToString(Again.Value), Text);
}

TEST(JsonNumberTest, RandomTokensMatchTheStrtodReference) {
  const std::uint64_t Seed = 12;
  Rng R(Seed);
  const unsigned Budget = numberBudget();
  for (unsigned I = 0; I != Budget; ++I) {
    std::string Tok = randomNumberToken(R);
    std::string Diff = numberMismatch(Tok);
    if (!Diff.empty()) {
      std::string Dump = test::dumpFailure("json_number", Seed * 100000 + I,
                                           Tok);
      FAIL() << "token '" << Tok << "':" << Diff << "\ndump: " << Dump;
    }
  }
}

TEST(JsonNumberTest, IntegersKeepTheirExactValue) {
  JsonParseResult P = parseJson("[-0,17,-9223372036854775808]");
  ASSERT_TRUE(P.Ok) << P.Error;
  EXPECT_TRUE(P.Value.Items[0].IsInt);
  EXPECT_EQ(P.Value.Items[0].IntVal, 0);
  EXPECT_TRUE(std::signbit(P.Value.Items[0].NumVal)); // as strtod gives it
  EXPECT_EQ(P.Value.Items[1].IntVal, 17);
  EXPECT_EQ(P.Value.Items[2].IntVal, INT64_MIN);
  EXPECT_EQ(jsonToString(P.Value), "[0,17,-9223372036854775808]");
}

TEST(JsonStringTest, EveryEscapeDecodes) {
  struct Case {
    const char *Json;
    std::string Want;
  };
  const Case Cases[] = {
      {R"("\"")", "\""},
      {R"("\\")", "\\"},
      {R"("\/")", "/"},
      {R"("\b\f\n\r\t")", "\b\f\n\r\t"},
      {R"("\u0000")", std::string(1, '\0')},
      {R"("\u001f\u0001")", "\x1f\x01"},
      {R"("\u0041")", "A"},
      {R"("\u007f")", "\x7f"},
      {R"("\u00e9\u00C9")", "\xc3\xa9\xc3\x89"},
      {R"("\u07ff")", "\xdf\xbf"},
      {R"("\u0800")", "\xe0\xa0\x80"},
      {R"("\u20AC")", "\xe2\x82\xac"},
      {R"("\uffff")", "\xef\xbf\xbf"},
      {R"("a\nb\u0002c")", "a\nb\x02" "c"},
  };
  for (const Case &C : Cases) {
    JsonParseResult P = parseJson(C.Json);
    ASSERT_TRUE(P.Ok) << C.Json << ": " << P.Error;
    EXPECT_EQ(P.Value.StrVal, C.Want) << C.Json;
  }
}

TEST(JsonStringTest, BadEscapesAndRawControlsFailAtTheirOffset) {
  EXPECT_EQ(parseJson(R"("ab\x")").Error, "offset 4: bad escape");
  EXPECT_EQ(parseJson(R"("\u12")").Error, "offset 2: bad \\u escape");
  EXPECT_EQ(parseJson(R"("\u12G4")").Error, "offset 2: bad \\u escape");
  EXPECT_EQ(parseJson("\"\\").Error, "offset 2: bad escape");
  EXPECT_EQ(parseJson("\"ab\x01\"").Error,
            "offset 3: raw control character in string");
  EXPECT_EQ(parseJson("\"abc").Error, "offset 4: unterminated string");
}

TEST(JsonStringTest, WriterEscapesExactlyWhatItMust) {
  std::string All;
  for (int C = 0; C != 0x80; ++C)
    All += static_cast<char>(C);
  All += "\xc3\xa9";
  const std::string Text = jsonToString(jsonStr(All));
  EXPECT_EQ(Text,
            R"("\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\b\t\n\u000b)"
            R"(\f\r\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016)"
            R"(\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f)"
            R"( !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ)"
            R"([\\]^_`abcdefghijklmnopqrstuvwxyz{|}~)"
            "\x7f\xc3\xa9\"");
  JsonParseResult Back = parseJson(Text);
  ASSERT_TRUE(Back.Ok) << Back.Error;
  EXPECT_EQ(Back.Value.StrVal, All);
  EXPECT_TRUE(Back.Canonical);
}

TEST(JsonCanonicalTest, TheWritersImageIsCanonical) {
  const std::string Doc =
      R"({"a":[1,-2,0.10000000000000001,true,false,null,"x\"\\\n\u0001"],)"
      R"("b":{},"c":[],"d":9223372036854775807})";
  JsonParseResult P = parseJson(Doc);
  ASSERT_TRUE(P.Ok) << P.Error;
  EXPECT_TRUE(P.Canonical);
  EXPECT_EQ(jsonToString(P.Value), Doc);
  // Trailing whitespace is not part of the value.
  EXPECT_TRUE(parseJson(Doc + "\n").Canonical);
}

TEST(JsonCanonicalTest, OtherSpellingsParseButAreNotCanonical) {
  for (const char *Doc :
       {" 1", "[1, 2]", "{\"b\":1,\"a\":2}", "{\"a\":1,\"a\":2}", "01",
        "-0", "+1", "1e3", "1.50", "\"\\/\"", "\"\\u0041\"", "\"\\u000a\"",
        "\"\\u001F\"", "\"\\u00e9\"", "[1e0]"}) {
    JsonParseResult P = parseJson(Doc);
    ASSERT_TRUE(P.Ok) << Doc << ": " << P.Error;
    EXPECT_FALSE(P.Canonical) << Doc;
    // Whatever the spelling, the writer's image of it is canonical.
    JsonParseResult Again = parseJson(jsonToString(P.Value));
    ASSERT_TRUE(Again.Ok) << Doc;
    EXPECT_TRUE(Again.Canonical) << Doc;
  }
  EXPECT_FALSE(parseJson("[1] x").Canonical); // failed parses never are
}

TEST(JsonDepthTest, CapsHoldAtJsonMaxDepthAndWireJsonMaxDepth) {
  for (std::size_t Cap : {JsonMaxDepth, serve::WireJsonMaxDepth}) {
    EXPECT_TRUE(parseJson(nestedArrays(Cap), Cap).Ok) << Cap;
    EXPECT_TRUE(parseJson(nestedObjects(Cap), Cap).Ok) << Cap;
    // The container one past the cap is refused at its own offset.
    EXPECT_EQ(parseJson(nestedArrays(Cap + 1), Cap).Error,
              "offset " + std::to_string(Cap) +
                  ": nesting depth cap exceeded");
    EXPECT_EQ(parseJson(nestedObjects(Cap + 1), Cap).Error,
              "offset " + std::to_string(5 * Cap) +
                  ": nesting depth cap exceeded");
  }
  EXPECT_EQ(parseJson(nestedArrays(JsonMaxDepth + 1)).Error,
            "offset 256: nesting depth cap exceeded");
}

/// Replays a dumped token when --ccal-fuzz-replay=<file> names a
/// kind=json_number dump; skipped otherwise.
TEST(FuzzReplayTest, ReplaysDumpedJsonNumber) {
  const std::string &Path = test::fuzzReplayPath();
  if (Path.empty())
    GTEST_SKIP() << "no --ccal-fuzz-replay=<file> given";
  test::FuzzDump D;
  std::string Err;
  ASSERT_TRUE(test::readFuzzDump(Path, D, Err)) << Err;
  if (D.Kind != "json_number")
    GTEST_SKIP() << "dump kind '" << D.Kind << "' is not handled here";
  EXPECT_EQ(numberMismatch(D.Body), "") << "token: " << D.Body;
}
