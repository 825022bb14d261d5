// tools/json_mini: the JSON parser behind trace_lint, obs_scrape and
// bench_compare. Nesting is capped, so a hostile document is refused instead
// of overflowing the stack, and seeded mutations of real documents (the
// committed bench fixtures, a registry scrape, a delta scrape and a tracer
// export) either parse or return the parser's error: no crash, no escaped
// exception.
#include "tools/json_mini.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/rng.h"

namespace jsonmini {
namespace {

// Parses `text`; true when it parsed. A refusal must come with an error.
bool Parses(const std::string& text) {
  std::string error;
  JsonParser parser(text);
  const JsonPtr value = parser.Parse(&error);
  if (value == nullptr) {
    EXPECT_FALSE(error.empty()) << "refused without an error";
    return false;
  }
  return true;
}

TEST(JsonMini, ParsesNestedDocument) {
  std::string error;
  const std::string text = R"({"a":[1,-2.5e3,{"b":"x\"y\u00e9"}],"c":null})";
  JsonParser parser(text);
  const JsonPtr value = parser.Parse(&error);
  ASSERT_NE(value, nullptr) << error;
  const JsonValue* a = value->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_TRUE(a->array[0]->is_integer);
  EXPECT_EQ(a->array[1]->number, -2500.0);
  EXPECT_EQ(a->array[2]->Find("b")->string_value, "x\"y\\u00e9");
}

TEST(JsonMini, NestingAtTheCapParses) {
  const std::string at_cap = std::string(kMaxDepth, '[') +
                             std::string(kMaxDepth, ']');
  EXPECT_TRUE(Parses(at_cap));
  const std::string objects = [] {
    std::string s;
    for (std::size_t i = 0; i < kMaxDepth; ++i) {
      s += "{\"k\":";
    }
    s += "0";
    return s + std::string(kMaxDepth, '}');
  }();
  EXPECT_TRUE(Parses(objects));
}

// Each nesting level is one level of recursion: past the cap the parser
// returns its normal error instead of running off the stack (200000 levels
// of '[' would).
TEST(JsonMini, DeepNestingIsRefused) {
  const std::string deep = std::string(200000, '[') + std::string(200000, ']');
  std::string error;
  JsonParser parser(deep);
  EXPECT_EQ(parser.Parse(&error), nullptr);
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
  EXPECT_FALSE(Parses(std::string(kMaxDepth + 1, '[') +
                      std::string(kMaxDepth + 1, ']')));
  EXPECT_FALSE(Parses(std::string(100000, '{')));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The fuzz corpus: every committed bench fixture plus the three documents
// the observability stack emits, each built here from live instruments.
const std::vector<std::string>& Corpus() {
  static const std::vector<std::string> corpus = [] {
    std::vector<std::string> docs;
    for (const char* name :
         {"bench_baseline.json", "bench_fresh_ok.json",
          "bench_fresh_jitter.json", "bench_fresh_mean_outlier.json",
          "bench_fresh_p50_regressed.json", "bench_fresh_regressed.json"}) {
      docs.push_back(ReadFile(std::string(LINSYS_TEST_DATA_DIR) + "/" + name));
    }
    obs::Registry registry;
    registry.GetCounter("fuzz.requests_total", 2)->Add(1, 41);
    registry.RegisterGaugeFn("fuzz.depth", [] { return std::int64_t{-3}; });
    obs::Histogram* cycles = registry.GetHistogram("fuzz.cycles");
    for (std::uint64_t v = 1; v < 5000; v *= 3) {
      cycles->RecordWithExemplar(0, v, v + 7);
    }
    docs.push_back(registry.Scrape().ToJson());
    docs.push_back(registry.SnapshotDelta().ToJson());
    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.Arm(1 << 10);
    tracer.SetThreadName("json-fuzz");
    {
      LINSYS_TRACE_SPAN("fuzz.span");
      LINSYS_TRACE_INSTANT_ARG("fuzz.instant", 3);
      LINSYS_TRACE_ASYNC_SPAN("fuzz.flow", "flow", 9);
    }
    docs.push_back(tracer.ExportChromeJson());
    tracer.Disarm();
    tracer.Reset();
    return docs;
  }();
  return corpus;
}

TEST(JsonMini, CorpusParsesClean) {
  ASSERT_EQ(Corpus().size(), 9u);
  for (const std::string& doc : Corpus()) {
    ASSERT_FALSE(doc.empty());
    EXPECT_TRUE(Parses(doc)) << doc.substr(0, 200);
  }
}

// One to four edits: flipped bytes, a truncation, or a run of one of the
// characters that open a nested value, a string or an escape. Runs reach
// past the nesting cap.
std::string Mutate(const std::string& clean, util::Rng& rng) {
  std::string doc = clean;
  static constexpr char kOpeners[] = {'[', '{', '"', '\\'};
  const std::uint64_t edits = 1 + rng.Below(4);
  for (std::uint64_t e = 0; e < edits && !doc.empty(); ++e) {
    switch (rng.Below(3)) {
      case 0:
        doc[rng.Below(doc.size())] ^=
            static_cast<char>(1 + rng.Below(255));
        break;
      case 1:
        doc.resize(rng.Below(doc.size()));
        break;
      case 2: {
        const char c = kOpeners[rng.Below(std::size(kOpeners))];
        const std::size_t run = 1 + rng.Below(2 * kMaxDepth);
        doc.insert(rng.Below(doc.size() + 1), run, c);
        break;
      }
    }
  }
  return doc;
}

class JsonFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonFuzz, MutatedDocumentsParseOrReturnAnError) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 25; ++round) {
    for (const std::string& doc : Corpus()) {
      (void)Parses(Mutate(doc, rng));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzz,
                         ::testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace jsonmini
