// Seeded, deterministic mutation fuzzers over the two front ends that read
// untrusted bytes: parser::SqlSession::Execute on a small database, and
// net::FrameReader::Next on encoded frames fed in random splits. A statement
// must give an error or a well-formed result; a frame reader must reject
// malformed bytes with kInvalidArgument, and a frame it accepts must encode
// to bytes that decode to the same frame. Under the sanitizer presets
// neither may read out of bounds or leak. The seeds and iteration counts are
// fixed, so a failure replays exactly.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "fr/algebra.h"
#include "mutate.h"
#include "parser/sql.h"
#include "server/net/wire.h"
#include "util/rng.h"

namespace mpfdb {
namespace {

using server::net::Frame;
using server::net::FrameReader;
using server::net::FrameType;

// A database with two views, an index and a VE-cache.
std::unique_ptr<Database> SqlDatabase() {
  auto db = std::make_unique<Database>();
  parser::SqlSession sql(*db);
  for (const char* statement : {
           "CREATE VARIABLE x DOMAIN 3", "CREATE VARIABLE y DOMAIN 2",
           "CREATE VARIABLE z DOMAIN 4", "CREATE TABLE a (x, y; f) KEY (x)",
           "INSERT INTO a VALUES (0, 0, 1.5), (1, 1, 2), (2, 0, 0.25)",
           "CREATE TABLE b (y, z; g)",
           "INSERT INTO b VALUES (0, 3, 0.5), (1, 2, 4), (0, 1, 1)",
           "CREATE MPFVIEW v AS SELECT * FROM a, b",
           "CREATE MPFVIEW m AS SELECT * FROM a, b USING min_sum",
           "CREATE INDEX ON a (x)", "BUILD CACHE ON v"}) {
    EXPECT_TRUE(sql.Execute(statement).ok()) << statement;
  }
  return db;
}

// One word-level edit, which byte edits rarely get past the tokenizer to
// make: half the time a number or a name is swapped for another of its
// kind (odd values and names of the database's objects); else a word from
// `vocabulary` replaces or joins one, or a word goes.
std::string MutateWords(const std::string& statement,
                        const std::vector<std::string>& vocabulary, Rng& rng) {
  static const std::vector<std::string> kNumbers = {
      "-1", "0", "1", "2", "3", "7", "4294967296", "1e308", "-0.0", "nan"};
  static const std::vector<std::string> kNames = {"x", "y", "z", "w", "a",
                                                  "b", "c", "v", "m", "f"};
  auto pick = [&](const std::vector<std::string>& from) {
    return from[rng.UniformInt(0, from.size() - 1)];
  };
  std::vector<std::string> words;
  std::istringstream in(statement);
  for (std::string w; in >> w;) words.push_back(w);
  const auto at = static_cast<std::ptrdiff_t>(
      rng.UniformInt(0, static_cast<int64_t>(words.size()) - 1));
  std::string& word = words[at];
  switch (rng.UniformInt(0, 5)) {
    case 0:
      word = pick(vocabulary);
      break;
    case 1:
      words.insert(words.begin() + at, pick(vocabulary));
      break;
    case 2:
      words.erase(words.begin() + at);
      break;
    default:
      if (std::isdigit(static_cast<unsigned char>(word[0]))) {
        word = pick(kNumbers);
      } else if (std::all_of(word.begin(), word.end(), [](unsigned char ch) {
                   return std::isalnum(ch) || ch == '_';
                 })) {
        word = pick(kNames);
      }
  }
  std::string out;
  for (const std::string& w : words) out += (out.empty() ? "" : " ") + w;
  return out;
}

TEST(SqlFuzzTest, MutatedStatementsFailOrAnswer) {
  const std::vector<std::string> corpus = {
      "SELECT x, SUM(f) FROM v WHERE z = 3 GROUP BY x",
      "SELECT x, z, SUM(f) FROM v WHERE y = 0 AND x = 1 GROUP BY x, z "
      "HAVING f >= 0.5 ORDER BY f DESC LIMIT 2 USING OPTIMIZER ve(deg) ext.",
      "SELECT y, MIN(f) FROM m GROUP BY y HAVING f <> 2 USING OPTIMIZER faq",
      "SELECT y, SUM(f) FROM CACHE v WHERE x = 1 GROUP BY y",
      "EXPLAIN SELECT z, SUM(f) FROM v GROUP BY z USING OPTIMIZER cs+",
      "EXPLAIN ANALYZE SELECT x, MIN(f) FROM m GROUP BY x",
      "CREATE TABLE c AS SELECT y, SUM(f) FROM v GROUP BY y",
      "CREATE VARIABLE w DOMAIN 5",
      "CREATE TABLE d (y, x, h) KEY (y)",
      "INSERT INTO b VALUES (1, 0, -3e-2)",
      "CREATE MPFVIEW u AS SELECT * FROM a USING max_product",
      "CREATE INDEX ON b (z)",
      "BUILD CACHE ON m",
      "DROP MPFVIEW m",
      "DROP TABLE b",
      "SHOW TABLES",
      "SHOW VIEWS",
  };
  const std::string interesting = " (),;=<>*.-0123e\n\"'";
  std::vector<std::string> vocabulary;
  for (const std::string& statement : corpus) {
    std::istringstream in(statement);
    for (std::string w; in >> w;) vocabulary.push_back(w);
  }
  Rng rng(23);
  std::unique_ptr<Database> db;
  size_t answered = 0;
  for (int i = 0; i < 10000; ++i) {
    if (i % 100 == 0) db = SqlDatabase();  // mutations pile up otherwise
    const std::string& seed = corpus[rng.UniformInt(0, corpus.size() - 1)];
    const std::string statement = rng.Bernoulli(0.5)
                                      ? Mutate(seed, interesting, rng)
                                      : MutateWords(seed, vocabulary, rng);
    auto result = parser::SqlSession(*db).Execute(statement);
    if (!result.ok()) {
      ASSERT_NE(result.status().code(), StatusCode::kInternal)
          << statement << ": " << result.status();
      continue;
    }
    ++answered;
    if (result->table != nullptr) {
      Status fd = fr::CheckFunctionalDependency(*result->table);
      ASSERT_TRUE(fd.ok()) << statement << ": " << fd;
    }
  }
  EXPECT_GT(answered, 0u);
}

// The one encoder for `frame`'s type.
std::vector<uint8_t> Encode(const Frame& frame) {
  std::vector<uint8_t> out;
  switch (frame.type) {
    case FrameType::kQuery:
      server::net::EncodeQuery(frame.query, &out);
      break;
    case FrameType::kResult:
      server::net::EncodeResult(frame.result, &out);
      break;
    case FrameType::kError:
      server::net::EncodeError(frame.error, &out);
      break;
    case FrameType::kMetrics:
      server::net::EncodeMetricsRequest(frame.metrics, &out);
      break;
    case FrameType::kMetricsReply:
      server::net::EncodeMetricsReply(frame.metrics_reply, &out);
      break;
    case FrameType::kUpdate:
      server::net::EncodeUpdate(frame.update, &out);
      break;
    case FrameType::kUpdateAck:
      server::net::EncodeUpdateAck(frame.update_ack, &out);
      break;
  }
  return out;
}

// One frame of every type (queries plain and approximate, results plain and
// with bounds) encoded back to back, as a corpus of byte strings: each frame
// alone, and each with its successor.
std::vector<std::string> FrameCorpus() {
  auto table = std::make_shared<Table>("t", Schema({"x", "y"}, "f"));
  table->AppendRow({0, 1}, 0.5);
  table->AppendRow({-3, 7}, -2.25);
  std::vector<Frame> frames(9);
  frames[0].type = FrameType::kQuery;
  frames[0].query = {7, false, false, 30, "view", "ve(deg) ext.",
                     MpfQuerySpec{{"x", "y"}, {{"z", 2}}}};
  frames[0].query.query.having = HavingClause{CompareOp::kGe, 0.75};
  frames[1].type = FrameType::kQuery;
  frames[1].query = {8, true, true, 0, "v", "", MpfQuerySpec{{"x"}, {}},
                     1e-3, 4, 99};
  frames[2].type = FrameType::kResult;
  frames[2].result = {7, 12, true, false, false, false, table};
  frames[3].type = FrameType::kResult;
  frames[3].result = {8, 3, false, true, true, true, table, 640, 0.125,
                      table, table};
  frames[4].type = FrameType::kError;
  frames[4].error = {9, StatusCode::kResourceExhausted, true, 15, "full"};
  frames[5].type = FrameType::kMetrics;
  frames[5].metrics = {10};
  frames[6].type = FrameType::kMetricsReply;
  frames[6].metrics_reply = {10, "queries 3\n"};
  frames[7].type = FrameType::kUpdate;
  frames[7].update = {11, {{"t", {0, 1}, 4.0}, {"u", {2}, 0.5}}};
  frames[8].type = FrameType::kUpdateAck;
  frames[8].update_ack = {11, 42};
  std::vector<std::string> corpus;
  for (size_t i = 0; i < frames.size(); ++i) {
    const std::vector<uint8_t> one = Encode(frames[i]);
    const std::vector<uint8_t> next = Encode(frames[(i + 1) % frames.size()]);
    corpus.emplace_back(one.begin(), one.end());
    corpus.push_back(corpus.back() + std::string(next.begin(), next.end()));
  }
  return corpus;
}

TEST(FrameReaderFuzzTest, MutatedFramesFailOrRoundTrip) {
  const std::vector<std::string> corpus = FrameCorpus();
  const std::string interesting("\0\1\2\3\4\5\6\7\x7f\x80\xff", 11);
  Rng rng(29);
  size_t accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string input = Mutate(
        corpus[rng.UniformInt(0, corpus.size() - 1)], interesting, rng);
    const auto* bytes = reinterpret_cast<const uint8_t*>(input.data());
    FrameReader reader;
    bool failed = false;
    for (size_t pos = 0; pos < input.size() && !failed;) {
      const size_t n = rng.UniformInt(1, input.size() - pos);
      reader.Append(bytes + pos, n);
      pos += n;
      Frame frame;
      while (true) {
        auto next = reader.Next(&frame);
        if (!next.ok()) {
          ASSERT_EQ(next.status().code(), StatusCode::kInvalidArgument);
          failed = true;
          break;
        }
        if (!*next) break;
        ++accepted;
        // What decodes encodes to bytes that decode to the same frame.
        const std::vector<uint8_t> encoded = Encode(frame);
        FrameReader again;
        again.Append(encoded.data(), encoded.size());
        Frame copy;
        auto decoded = again.Next(&copy);
        ASSERT_TRUE(decoded.ok() && *decoded) << decoded.status();
        ASSERT_EQ(Encode(copy), encoded);
        ASSERT_EQ(again.buffered_bytes(), 0u);
      }
    }
  }
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace mpfdb
