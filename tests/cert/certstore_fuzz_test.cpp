//===- tests/cert/certstore_fuzz_test.cpp - Byte mutants of a stored entry ===//
//
// A byte-level mutator (flip, truncate, splice, nest) over stored MCS
// certificates.  Every mutant must either parse, and then render∘parse is
// a fixed point, or fail with an "offset N:" error; none may crash.  And
// CertStore::load must either reject the mutant or return an entry whose
// render is the mutant's bytes: the store serves only the writer's image.
// A failing mutant is dumped as kind=json_mutant (replay it with
// --ccal-fuzz-replay=<file>, check it into tests/corpus/ once minimized).
//
//===----------------------------------------------------------------------===//

#include "cert/CertStore.h"

#include "objects/Harness.h"
#include "objects/McsLock.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "tests/common/fuzz_support.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

using namespace ccal;
namespace fs = std::filesystem;

namespace {

/// A stored entry and the key it was stored under.
struct StoredEntry {
  std::string Bytes;
  cert::CertKey Key;
};

/// Certifies the MCS lock at \p Cpus x \p Rounds into a scratch store and
/// returns the entry it wrote.
StoredEntry storeMcsEntry(unsigned Cpus, unsigned Rounds) {
  const fs::path Dir = fs::path(::testing::TempDir()) /
                       ("ccal_fuzz_seed_mcs_" + std::to_string(Cpus) + "x" +
                        std::to_string(Rounds));
  fs::remove_all(Dir);
  cert::setStoreDir(Dir.string());
  runObjectHarness(makeMcsLockHarness(Cpus, Rounds));
  cert::setStoreDir("");
  StoredEntry Out;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
    std::ifstream In(E.path(), std::ios::binary);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Out.Bytes = Buf.str();
  }
  fs::remove_all(Dir);
  JsonParseResult P = parseJson(Out.Bytes);
  EXPECT_TRUE(P.Ok) << P.Error;
  if (P.Ok) {
    Out.Key.Checker = P.Value.field("checker")->StrVal;
    Out.Key.Version = P.Value.field("version")->StrVal;
    Out.Key.Hash =
        std::strtoull(P.Value.field("key")->StrVal.c_str(), nullptr, 16);
    Out.Key.Desc = P.Value.field("desc")->StrVal;
  }
  return Out;
}

/// 1 CPU x 2 rounds: a 1.3 KB entry, cheap enough for many mutants.
const StoredEntry &smallEntry() {
  static const StoredEntry E = storeMcsEntry(1, 2);
  return E;
}

/// 2 CPUs x 1 round: the 670 KB entry certd's mcs.2cpu job stores.
const StoredEntry &fullEntry() {
  static const StoredEntry E = storeMcsEntry(2, 1);
  return E;
}

/// Offset of the bracket matching the '[' or '{' at \p Open, or npos.
std::size_t matchingClose(const std::string &S, std::size_t Open) {
  std::size_t Depth = 0;
  bool InString = false;
  for (std::size_t I = Open; I < S.size(); ++I) {
    const char C = S[I];
    if (InString) {
      if (C == '\\')
        ++I;
      else if (C == '"')
        InString = false;
    } else if (C == '"') {
      InString = true;
    } else if (C == '[' || C == '{') {
      ++Depth;
    } else if ((C == ']' || C == '}') && --Depth == 0) {
      return I;
    }
  }
  return std::string::npos;
}

/// One to three random byte-level edits of \p In.
std::string mutate(const std::string &In, Rng &R) {
  static const char Interesting[] = "{}[]\",:\\0123456789-+.eEtfnu \n\x01\x7f";
  std::string M = In;
  const std::uint64_t Edits = 1 + R.below(3);
  for (std::uint64_t E = 0; E != Edits && !M.empty(); ++E) {
    const std::size_t At = R.below(M.size());
    switch (R.below(4)) {
    case 0: // flip: one bit, or a byte the grammar cares about
      if (R.chance(1, 2))
        M[At] = static_cast<char>(M[At] ^ (1 << R.below(8)));
      else
        M[At] = Interesting[R.below(sizeof(Interesting) - 1)];
      break;
    case 1: // truncate
      M.resize(At);
      break;
    case 2: { // splice: copy a short run of the input elsewhere
      const std::size_t From = R.below(M.size());
      const std::size_t Len = 1 + R.below(std::min<std::size_t>(
                                      48, M.size() - From));
      const std::string Run = M.substr(From, Len);
      if (R.chance(1, 2))
        M.insert(At, Run);
      else
        M.replace(At, std::min(Len, M.size() - At), Run);
      break;
    }
    default: { // nest: wrap a container in brackets, sometimes past the cap
      const std::size_t Open = M.find_first_of("[{", At);
      const std::size_t Close =
          Open == std::string::npos ? Open : matchingClose(M, Open);
      if (Close == std::string::npos)
        break;
      const std::size_t Levels = R.chance(1, 4) ? JsonMaxDepth : 1 + R.below(3);
      M.insert(Close + 1, std::string(Levels, ']'));
      M.insert(Open, std::string(Levels, '['));
      break;
    }
    }
  }
  return M;
}

/// The offset of a parse error shaped "offset <digits>: <message>", with
/// a non-empty one-line message; false for any other shape.
bool errorOffset(const std::string &Error, std::uint64_t &Offset) {
  const std::string_view Prefix = "offset ";
  if (Error.compare(0, Prefix.size(), Prefix) != 0)
    return false;
  const size_t Digits = Prefix.size();
  size_t I = Digits;
  while (I < Error.size() && Error[I] >= '0' && Error[I] <= '9')
    ++I;
  if (I == Digits || Error.compare(I, 2, ": ") != 0)
    return false;
  const std::string_view Message = std::string_view(Error).substr(I + 2);
  if (Message.empty() || Message.find_first_of("\r\n") != Message.npos)
    return false;
  Offset = std::stoull(Error.substr(Digits, I - Digits));
  return true;
}

/// Empty when \p M behaves: the parse either fails at an offset inside the
/// input or reaches a fixed point, and \p Store serves \p M under \p Key
/// only if it renders back to exactly \p M.
std::string mutantViolation(const std::string &M, cert::CertStore &Store,
                            const cert::CertKey &Key) {
  JsonParseResult P = parseJson(M);
  if (!P.Ok) {
    std::uint64_t Offset = 0;
    if (!errorOffset(P.Error, Offset) || Offset > M.size())
      return "error without an in-range offset: " + P.Error;
  } else {
    const std::string Once = jsonToString(P.Value);
    JsonParseResult Again = parseJson(Once);
    if (!Again.Ok)
      return "the writer's image does not parse: " + Again.Error;
    if (!Again.Canonical || jsonToString(Again.Value) != Once)
      return "render∘parse is not a fixed point";
    if (P.Canonical && Once != M.substr(0, M.find_last_not_of(" \t\n\r") + 1))
      return "a canonical parse does not render back to its text";
  }

  std::ofstream(fs::path(Store.dir()) / (Key.fileStem() + ".cert.json"),
                std::ios::binary)
      << M;
  cert::CertStore::Entry E;
  if (Store.load(Key, E) && cert::CertStore::render(Key, E) != M)
    return "load served an entry that does not render back to the mutant";
  return "";
}

/// Mutant budget per test; CI's fuzz job may raise it via
/// CCAL_FUZZ_MUTANTS.
unsigned mutantBudget(unsigned Default) {
  if (const char *Env = std::getenv("CCAL_FUZZ_MUTANTS"))
    if (unsigned N = static_cast<unsigned>(std::strtoul(Env, nullptr, 10)))
      return N;
  return Default;
}

class CertStoreFuzzTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = fs::path(::testing::TempDir()) /
          (std::string("ccal_cert_fuzz_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(Dir);
    Store = std::make_unique<cert::CertStore>(Dir.string());
  }
  void TearDown() override { fs::remove_all(Dir); }

  void runMutants(const StoredEntry &Seed, std::uint64_t BaseSeed,
                  unsigned Budget) {
    ASSERT_FALSE(Seed.Bytes.empty());
    // The unmutated entry itself is served, byte for byte.
    ASSERT_EQ(mutantViolation(Seed.Bytes, *Store, Seed.Key), "");
    cert::CertStore::Entry E;
    std::ofstream(Dir / (Seed.Key.fileStem() + ".cert.json"),
                  std::ios::binary)
        << Seed.Bytes;
    ASSERT_TRUE(Store->load(Seed.Key, E));
    for (unsigned I = 0; I != Budget; ++I) {
      const std::uint64_t CaseSeed = BaseSeed + I;
      Rng R(CaseSeed);
      const std::string M = mutate(Seed.Bytes, R);
      const std::string Why = mutantViolation(M, *Store, Seed.Key);
      if (!Why.empty()) {
        std::string Dump = test::dumpFailure("json_mutant", CaseSeed, M);
        FAIL() << Why << "\nseed: " << CaseSeed << "\ndump: " << Dump;
      }
    }
  }

  fs::path Dir;
  std::unique_ptr<cert::CertStore> Store;
};

} // namespace

TEST_F(CertStoreFuzzTest, SmallMcsEntryMutantsParseOrFailAndLoadFailsClosed) {
  runMutants(smallEntry(), 1000000, mutantBudget(3000));
}

TEST_F(CertStoreFuzzTest, FullMcsEntryMutantsParseOrFailAndLoadFailsClosed) {
  // A mutant of the 670 KB entry costs about 500 small ones.
  runMutants(fullEntry(), 2000000, std::max(12u, mutantBudget(3000) / 500));
}

/// Replays a dumped mutant when --ccal-fuzz-replay=<file> names a
/// kind=json_mutant dump; skipped otherwise.  Its seed entry is not
/// recorded, so it is checked under both entries' keys.
TEST_F(CertStoreFuzzTest, ReplaysDumpedJsonMutant) {
  const std::string &Path = test::fuzzReplayPath();
  if (Path.empty())
    GTEST_SKIP() << "no --ccal-fuzz-replay=<file> given";
  test::FuzzDump D;
  std::string Err;
  ASSERT_TRUE(test::readFuzzDump(Path, D, Err)) << Err;
  if (D.Kind != "json_mutant")
    GTEST_SKIP() << "dump kind '" << D.Kind << "' is not handled here";
  for (const StoredEntry *Seed : {&smallEntry(), &fullEntry()})
    EXPECT_EQ(mutantViolation(D.Body, *Store, Seed->Key), "");
}

/// Checked-in past failures keep behaving.
TEST_F(CertStoreFuzzTest, PastJsonMutantsStayHandled) {
  std::vector<std::string> Files =
      test::corpusFiles(CCAL_CORPUS_DIR, "json_mutant");
  ASSERT_FALSE(Files.empty())
      << "no json_mutant corpus entries under " << CCAL_CORPUS_DIR;
  for (const std::string &Path : Files) {
    test::FuzzDump D;
    std::string Err;
    ASSERT_TRUE(test::readFuzzDump(Path, D, Err)) << Err;
    EXPECT_EQ(mutantViolation(D.Body, *Store, smallEntry().Key), "") << Path;
  }
}
