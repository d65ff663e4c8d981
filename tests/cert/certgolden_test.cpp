//===- tests/cert/certgolden_test.cpp - Byte-pinned certificate goldens -------===//
//
// The interning refactor's compatibility contract: event kinds are integer
// ids in memory, but everything that leaves the process — serialized logs
// in certificates, content-addressed store keys — still goes through the
// kind *string*, so stored certificates from before the change verify
// byte-identically after it.  These goldens were captured from the
// pre-interning representation (std::string Event::Kind, plain
// std::vector<Event> log); any byte difference here means existing
// certificate stores would silently miss (or worse, collide).
//
// The full-entry golden does the same for CertStore::render as a whole:
// the store's writer may change how it writes (envelope written directly,
// bulk string runs, to_chars integers) but never what it writes.
//
// The link-entry golden pins what a real checker stores: the Thm 5.1
// linking check's entry (certificate, ten-field payload with no corpus,
// and its content address), so a refactor of the refinement checkers or
// of the payload codec cannot change a stored "link" entry unnoticed.
//
//===----------------------------------------------------------------------===//

#include "cert/CertJson.h"

#include "cert/CertKey.h"
#include "cert/CertStore.h"
#include "support/Json.h"
#include "threads/Linking.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

using namespace ccal;
using namespace ccal::cert;

namespace {

/// A log exercising every serialization shape: sched events, no-arg and
/// multi-arg kinds, negative numbers, and both int64 extremes.
Log makeGoldenLog() {
  Log L;
  L.push_back(Event::sched(1));
  L.push_back(Event(1, "FAI_t"));
  L.push_back(Event(1, "hold"));
  L.push_back(Event(2, "FAI_t", {7, -3}));
  L.push_back(Event(1, "f", {0}));
  L.push_back(Event(1, "g"));
  L.push_back(Event(1, "inc_n"));
  L.push_back(Event::sched(2));
  L.push_back(Event(2, "push",
                    {42, std::numeric_limits<std::int64_t>::max()}));
  L.push_back(Event(3, "pop", {std::numeric_limits<std::int64_t>::min()}));
  L.push_back(Event(2, "acq"));
  L.push_back(Event(2, "rel"));
  return L;
}

/// An entry exercising every shape the store writes: a nested premise
/// tree, notes with every escape plus raw control characters, and a
/// payload whose corpus holds both int64 extremes.
CertKey makeGoldenKey() {
  CertKey K;
  K.Checker = "refine";
  K.Version = "golden-v1";
  K.Hash = 0x0123456789abcdefULL;
  K.Desc = "tick \"impl\" refines tick\\spec via id";
  return K;
}

CertPtr makeGoldenLeaf(const std::string &Module, std::uint64_t Runs) {
  auto C = std::make_shared<RefinementCertificate>();
  C->Rule = "Fun";
  C->Underlay = "L0";
  C->Module = Module;
  C->Overlay = "L1";
  C->Relation = "R_id";
  C->Valid = true;
  C->CoverageComplete = true;
  C->Coverage = "exhaustive";
  C->Obligations = 7;
  C->Runs = Runs;
  C->Moves = 123456789012ULL;
  C->Invariants = 2;
  return C;
}

CertStore::Entry makeGoldenEntry() {
  auto Inner = std::make_shared<RefinementCertificate>(
      *makeGoldenLeaf("inner", 1));
  Inner->Rule = "Wk";
  Inner->Premises.push_back(makeGoldenLeaf("leaf", 0));
  auto Root = std::make_shared<RefinementCertificate>(
      *makeGoldenLeaf("root", 9007199254740993ULL));
  Root->Rule = "Vcomp";
  Root->Premises.push_back(Inner);
  Root->Premises.push_back(makeGoldenLeaf("right", 42));
  Root->Notes.push_back("quote \" backslash \\ slash / done");
  Root->Notes.push_back("bs \b ff \f nl \n cr \r tab \t");
  Root->Notes.push_back(std::string("raw \x01 and \x1f and nul ") +
                        std::string(1, '\0') + " end");
  Root->Notes.push_back("utf8 \xc3\xa9 del \x7f");
  Root->Notes.push_back("");

  Log L;
  L.push_back(Event::sched(1));
  L.push_back(Event(1, "FAI_t", {0}));
  L.push_back(Event(2, "push", {std::numeric_limits<std::int64_t>::max(),
                                std::numeric_limits<std::int64_t>::min()}));
  L.push_back(Event(2, "pop", {-1, 0, 1}));
  Log Empty;

  JsonValue P;
  P.K = JsonValue::Kind::Object;
  P.Fields["holds"] = jsonBool(true);
  P.Fields["spec_complete"] = jsonBool(false);
  P.Fields["counterexample"] = jsonStr("");
  P.Fields["states"] = jsonUInt(652961);
  P.Fields["ratio"] = jsonNum(0.1);
  P.Fields["nothing"] = jsonNull();
  P.Fields["corpus"] = logsToJson({L, Empty, L});

  CertStore::Entry E;
  E.Cert = Root;
  E.Payload = std::move(P);
  return E;
}

/// CertStore::render of makeGoldenEntry() under makeGoldenKey(), captured
/// from the writer that built a whole JsonValue document (payload copied
/// in) and rendered it with snprintf integers and per-character strings.
const char GoldenEntryBytes[] =
      "{\"certificate\":{\"coverage\":\"exhaustive\",\"coverage_complete\":tr"
      "ue,\"invariants\":2,\"module\":\"root\",\"moves\":123456789012,\"notes"
      "\":[\"quote \\\" backslash \\\\ slash / done\",\"bs \\b ff \\f nl \\n "
      "cr \\r tab \\t\",\"raw \\u0001 and \\u001f and nul \\u0000 end\",\"utf"
      "8 \xc3\xa9 del \x7f\",\"\"],\"obligations\":7,\"overlay\":\"L1\",\"pre"
      "mises\":[{\"coverage\":\"exhaustive\",\"coverage_complete\":true,\"inv"
      "ariants\":2,\"module\":\"inner\",\"moves\":123456789012,\"notes\":[],"
      "\"obligations\":7,\"overlay\":\"L1\",\"premises\":[{\"coverage\":\"exh"
      "austive\",\"coverage_complete\":true,\"invariants\":2,\"module\":\"lea"
      "f\",\"moves\":123456789012,\"notes\":[],\"obligations\":7,\"overlay\":"
      "\"L1\",\"premises\":[],\"relation\":\"R_id\",\"rule\":\"Fun\",\"runs\""
      ":0,\"underlay\":\"L0\",\"valid\":true}],\"relation\":\"R_id\",\"rule\""
      ":\"Wk\",\"runs\":1,\"underlay\":\"L0\",\"valid\":true},{\"coverage\":"
      "\"exhaustive\",\"coverage_complete\":true,\"invariants\":2,\"module\":"
      "\"right\",\"moves\":123456789012,\"notes\":[],\"obligations\":7,\"over"
      "lay\":\"L1\",\"premises\":[],\"relation\":\"R_id\",\"rule\":\"Fun\",\""
      "runs\":42,\"underlay\":\"L0\",\"valid\":true}],\"relation\":\"R_id\","
      "\"rule\":\"Vcomp\",\"runs\":9007199254740993,\"underlay\":\"L0\",\"val"
      "id\":true},\"checker\":\"refine\",\"desc\":\"tick \\\"impl\\\" refines"
      " tick\\\\spec via id\",\"key\":\"0123456789abcdef\",\"payload\":{\"cor"
      "pus\":[[[1,\"sched\",[]],[1,\"FAI_t\",[0]],[2,\"push\",[92233720368547"
      "75807,-9223372036854775808]],[2,\"pop\",[-1,0,1]]],[],[[1,\"sched\",[]"
      "],[1,\"FAI_t\",[0]],[2,\"push\",[9223372036854775807,-9223372036854775"
      "808]],[2,\"pop\",[-1,0,1]]]],\"counterexample\":\"\",\"holds\":true,\""
      "nothing\":null,\"ratio\":0.10000000000000001,\"spec_complete\":false,"
      "\"states\":652961},\"schema\":1,\"version\":\"golden-v1\"}\n";

} // namespace

TEST(CertGoldenTest, LogJsonBytesMatchPreInterningCapture) {
  // Captured from the seed (string-kinded) serializer on the same log.
  const std::string Golden =
      "[[1,\"sched\",[]],[1,\"FAI_t\",[]],[1,\"hold\",[]],"
      "[2,\"FAI_t\",[7,-3]],[1,\"f\",[0]],[1,\"g\",[]],[1,\"inc_n\",[]],"
      "[2,\"sched\",[]],[2,\"push\",[42,9223372036854775807]],"
      "[3,\"pop\",[-9223372036854775808]],[2,\"acq\",[]],[2,\"rel\",[]]]";
  EXPECT_EQ(jsonToString(logToJson(makeGoldenLog())), Golden);
}

TEST(CertGoldenTest, LogJsonRoundTripsThroughInternedEvents) {
  Log L = makeGoldenLog();
  Log Back;
  ASSERT_TRUE(logFromJson(logToJson(L), Back));
  EXPECT_EQ(Back, L);
  EXPECT_EQ(jsonToString(logToJson(Back)), jsonToString(logToJson(L)));
}

TEST(CertGoldenTest, CertKeyLogHashMatchesPreInterningCapture) {
  // keyAddLog hashes the kind *string* (not the id, not the cached
  // strHash seed path), so store addresses survive the representation
  // change.  Captured from the seed Hasher on this log.
  Log L;
  L.push_back(Event::sched(1));
  L.push_back(Event(1, "FAI_t"));
  L.push_back(Event(2, "hold", {7, -3}));
  L.push_back(Event(1, "inc_n", {0}));
  Hasher H;
  keyAddLog(H, L);
  EXPECT_EQ(H.value(), 0x434aa5b685e27c8bULL);
}

TEST(CertGoldenTest, EventJsonUsesStringsNotIds) {
  // Intern two fresh kinds in reverse lexicographic order: the serialized
  // form must depend only on the strings.
  Event B(1, "zz_golden_kind");
  Event A(1, "aa_golden_kind");
  EXPECT_EQ(jsonToString(eventToJson(A)), "[1,\"aa_golden_kind\",[]]");
  EXPECT_EQ(jsonToString(eventToJson(B)), "[1,\"zz_golden_kind\",[]]");
}

TEST(CertGoldenTest, StoreEntryBytesMatchTheDocumentWriterCapture) {
  EXPECT_EQ(CertStore::render(makeGoldenKey(), makeGoldenEntry()),
            std::string(GoldenEntryBytes, sizeof(GoldenEntryBytes) - 1));
}

TEST(CertGoldenTest, GoldenEntryLoadsAndRendersBackToItsBytes) {
  const std::string Golden(GoldenEntryBytes, sizeof(GoldenEntryBytes) - 1);
  const std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / "ccal_cert_golden";
  std::filesystem::remove_all(Dir);
  CertStore Store(Dir.string());
  const CertKey Key = makeGoldenKey();
  std::ofstream(Dir / (Key.fileStem() + ".cert.json"), std::ios::binary)
      << Golden;
  CertStore::Entry E;
  ASSERT_TRUE(Store.load(Key, E));
  EXPECT_EQ(CertStore::render(Key, E), Golden);
  EXPECT_EQ(E.Cert->tree(), makeGoldenEntry().Cert->tree());
  std::filesystem::remove_all(Dir);
}

namespace {

/// The store entry checkMultithreadedLinking({2, 2}) writes, captured
/// before the three refinement checkers were folded into one.
const char GoldenLinkEntryBytes[] =
    "{\"certificate\":{\"coverage\":\"exhaustive\",\"coverage_complete\":tru"
    "e,\"invariants\":0,\"module\":\"M_sched (+) M_local_queue\",\"moves\":3"
    "0,\"notes\":[],\"obligations\":1,\"overlay\":\"Lhtd[0][Tc]\",\"premises"
    "\":[],\"relation\":\"Rbtd\",\"rule\":\"MultithreadLink\",\"runs\":2,\"u"
    "nderlay\":\"Lbtd[0]\",\"valid\":true},\"checker\":\"link\",\"desc\":\"T"
    "hm 5.1 linking: 2 threads x 2 rounds\",\"key\":\"e9c28ac939ca4028\",\"p"
    "ayload\":{\"counterexample\":\"\",\"coverage\":\"exhaustive\",\"holds\""
    ":true,\"impl_complete\":true,\"impl_outcomes\":1,\"obligations\":1,\"sc"
    "hedules\":2,\"spec_complete\":true,\"spec_outcomes\":1,\"states\":30},"
    "\"schema\":1,\"version\":\"link-v1\"}\n";

CertKey makeGoldenLinkKey() {
  CertKey K;
  K.Checker = "link";
  K.Version = "link-v1";
  K.Hash = 0xe9c28ac939ca4028ULL;
  K.Desc = "Thm 5.1 linking: 2 threads x 2 rounds";
  return K;
}

} // namespace

TEST(CertGoldenTest, LinkEntryBytesMatchTheCapture) {
  const std::string Golden(GoldenLinkEntryBytes,
                           sizeof(GoldenLinkEntryBytes) - 1);
  const std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / "ccal_cert_golden_link";
  std::filesystem::remove_all(Dir);
  setStoreDir(Dir.string());
  LinkingSetup Setup;
  Setup.NumThreads = 2;
  Setup.Rounds = 2;
  LinkingReport Rep = checkMultithreadedLinking(Setup);
  setStoreDir("");
  ASSERT_TRUE(Rep.Refinement.Holds) << Rep.Refinement.Counterexample;

  const CertKey Key = makeGoldenLinkKey();
  const std::filesystem::path File = Dir / (Key.fileStem() + ".cert.json");
  std::ifstream In(File, std::ios::binary);
  const std::string Bytes((std::istreambuf_iterator<char>(In)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(Bytes, Golden) << File;

  // The stored image is the writer's own: it loads and renders back.
  CertStore Store(Dir.string());
  CertStore::Entry E;
  ASSERT_TRUE(Store.load(Key, E));
  EXPECT_EQ(CertStore::render(Key, E), Golden);
  std::filesystem::remove_all(Dir);
}
