// Tests for the wire protocol codec: frame roundtrips (every frame type,
// every flag), incremental byte-at-a-time feeding, pipelined frames in one
// buffer, and rejection of malformed input — unknown types, hostile length
// prefixes, truncated payloads, trailing garbage, implausible counts.

#include "server/net/wire.h"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fr/algebra.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "util/rng.h"

namespace mpfdb {
namespace {

using server::net::ErrorFrame;
using server::net::Frame;
using server::net::FrameReader;
using server::net::FrameType;
using server::net::MetricsReplyFrame;
using server::net::MetricsRequestFrame;
using server::net::QueryRequestFrame;
using server::net::ResultFrame;

// Feeds one encoded buffer to a fresh reader and expects exactly one frame.
Frame DecodeOne(const std::vector<uint8_t>& bytes) {
  FrameReader reader;
  reader.Append(bytes.data(), bytes.size());
  Frame frame;
  auto got = reader.Next(&frame);
  EXPECT_TRUE(got.ok()) << got.status().message();
  EXPECT_TRUE(got.ok() && *got);
  EXPECT_EQ(reader.buffered_bytes(), 0u);
  return frame;
}

TEST(NetWireTest, QueryRoundtripFull) {
  QueryRequestFrame req;
  req.request_id = 0xDEADBEEFCAFE1234ull;
  req.cached = true;
  req.deadline_ms = 2500;
  req.view = "sales_view";
  req.optimizer = "cs+nonlinear";
  req.query.group_vars = {"region", "product"};
  req.query.selections = {{"quarter", 3}, {"channel", -1}};
  req.query.having = HavingClause{CompareOp::kGe, 0.125};

  std::vector<uint8_t> bytes;
  EncodeQuery(req, &bytes);
  Frame frame = DecodeOne(bytes);
  ASSERT_EQ(frame.type, FrameType::kQuery);
  const QueryRequestFrame& out = frame.query;
  EXPECT_EQ(out.request_id, req.request_id);
  EXPECT_TRUE(out.cached);
  EXPECT_EQ(out.deadline_ms, 2500u);
  EXPECT_EQ(out.view, "sales_view");
  EXPECT_EQ(out.optimizer, "cs+nonlinear");
  EXPECT_EQ(out.query.group_vars, req.query.group_vars);
  ASSERT_EQ(out.query.selections.size(), 2u);
  EXPECT_EQ(out.query.selections[0].var, "quarter");
  EXPECT_EQ(out.query.selections[0].value, 3);
  EXPECT_EQ(out.query.selections[1].value, -1);
  ASSERT_TRUE(out.query.having.has_value());
  EXPECT_EQ(out.query.having->op, CompareOp::kGe);
  EXPECT_EQ(out.query.having->threshold, 0.125);
}

TEST(NetWireTest, QueryRoundtripMinimal) {
  QueryRequestFrame req;
  req.request_id = 1;
  req.view = "v";

  std::vector<uint8_t> bytes;
  EncodeQuery(req, &bytes);
  Frame frame = DecodeOne(bytes);
  ASSERT_EQ(frame.type, FrameType::kQuery);
  EXPECT_FALSE(frame.query.cached);
  EXPECT_EQ(frame.query.deadline_ms, 0u);
  EXPECT_TRUE(frame.query.optimizer.empty());
  EXPECT_TRUE(frame.query.query.group_vars.empty());
  EXPECT_TRUE(frame.query.query.selections.empty());
  EXPECT_FALSE(frame.query.query.having.has_value());
}

TEST(NetWireTest, ResultRoundtripBitIdentical) {
  auto table = std::make_shared<Table>("answer", Schema({"x", "y"}, "prob"));
  table->AppendRow({0, 1}, 0.375);
  table->AppendRow({2, -3}, 1e-300);          // subnormal-adjacent magnitude
  table->AppendRow({5, 7}, -0.0);             // signed zero must survive
  table->AppendRow({1, 1}, 1.0 / 3.0);        // non-terminating binary

  ResultFrame res;
  res.request_id = 42;
  res.snapshot_epoch = 917;
  res.plan_cache_hit = true;
  res.epoch_inexact = true;
  res.table = table;

  std::vector<uint8_t> bytes;
  EncodeResult(res, &bytes);
  Frame frame = DecodeOne(bytes);
  ASSERT_EQ(frame.type, FrameType::kResult);
  const ResultFrame& out = frame.result;
  EXPECT_EQ(out.request_id, 42u);
  EXPECT_EQ(out.snapshot_epoch, 917u);
  EXPECT_TRUE(out.plan_cache_hit);
  EXPECT_TRUE(out.epoch_inexact);
  ASSERT_NE(out.table, nullptr);
  EXPECT_EQ(out.table->name(), "answer");
  EXPECT_EQ(out.table->schema().measure_name(), "prob");
  // Bit-identical: tolerance 0.0, including the signed zero.
  EXPECT_TRUE(fr::TablesEqual(*table, *out.table, 0.0));
  EXPECT_TRUE(std::signbit(out.table->measure(2)));
}

// The result frame's bytes, pinned: a two-row table as the per-value writer
// laid it out (little-endian fixed-width fields, rows back to back).
TEST(NetWireTest, ResultFrameGoldenBytes) {
  auto table = std::make_shared<Table>("t", Schema({"x"}, "f"));
  table->AppendRow({1}, 0.5);
  table->AppendRow({-2}, -0.0);
  ResultFrame res;
  res.request_id = 42;
  res.snapshot_epoch = 917;
  res.plan_cache_hit = true;
  res.table = table;
  std::vector<uint8_t> bytes;
  EncodeResult(res, &bytes);
  const std::vector<uint8_t> golden = {
      0x40, 0x00, 0x00, 0x00, 0x02,                    // length 64, kResult
      0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // request id 42
      0x95, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // epoch 917
      0x01,                                            // plan_cache_hit
      0x01, 0x00, 0x00, 0x00, 't',                     // table name
      0x01, 0x00, 0x00, 0x00, 'f',                     // measure name
      0x01, 0x00, 0x00, 0x00,                          // arity 1
      0x01, 0x00, 0x00, 0x00, 'x',                     // variable
      0x02, 0x00, 0x00, 0x00,                          // 2 rows
      0x01, 0x00, 0x00, 0x00,                          // x = 1
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f,  // 0.5
      0xfe, 0xff, 0xff, 0xff,                          // x = -2
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // -0.0
  };
  EXPECT_EQ(bytes, golden);
}

// The per-value writer the row-block codec replaced, kept as the reference
// layout: every field appended one byte at a time.
void LegacyPut(uint64_t v, int width, std::vector<uint8_t>* out) {
  for (int i = 0; i < width; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}
void LegacyPutString(const std::string& s, std::vector<uint8_t>* out) {
  LegacyPut(s.size(), 4, out);
  out->insert(out->end(), s.begin(), s.end());
}
void LegacyPutF64(double v, std::vector<uint8_t>* out) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  LegacyPut(bits, 8, out);
}
void LegacyPutTable(const Table& t, std::vector<uint8_t>* out) {
  LegacyPutString(t.name(), out);
  LegacyPutString(t.schema().measure_name(), out);
  LegacyPut(t.schema().arity(), 4, out);
  for (const auto& var : t.schema().variables()) LegacyPutString(var, out);
  LegacyPut(t.NumRows(), 4, out);
  for (size_t r = 0; r < t.NumRows(); ++r) {
    RowView row = t.Row(r);
    for (size_t i = 0; i < row.arity; ++i) {
      LegacyPut(static_cast<uint32_t>(row.var(i)), 4, out);
    }
    LegacyPutF64(row.measure, out);
  }
}
std::vector<uint8_t> LegacyEncodeResult(const ResultFrame& f) {
  std::vector<uint8_t> out(4, 0);
  out.push_back(static_cast<uint8_t>(FrameType::kResult));
  LegacyPut(f.request_id, 8, &out);
  LegacyPut(f.snapshot_epoch, 8, &out);
  out.push_back(static_cast<uint8_t>(
      (f.plan_cache_hit ? 1 : 0) | (f.epoch_inexact ? 2 : 0) |
      (f.approximate ? 4 : 0) | (f.deadline_degraded ? 8 : 0)));
  LegacyPutTable(*f.table, &out);
  if (f.approximate) {
    LegacyPut(f.samples, 8, &out);
    LegacyPutF64(f.bound_gap, &out);
    LegacyPutTable(*f.lower, &out);
    LegacyPutTable(*f.upper, &out);
  }
  const uint64_t len = out.size() - 5;
  for (int i = 0; i < 4; ++i) out[i] = static_cast<uint8_t>(len >> (8 * i));
  return out;
}

TablePtr RandomResultTable(const std::string& name, size_t arity, size_t rows,
                           uint64_t seed) {
  std::vector<std::string> vars;
  for (size_t i = 0; i < arity; ++i) vars.push_back("v" + std::to_string(i));
  auto t = std::make_shared<Table>(name, Schema(vars, "f"));
  Rng rng(seed);
  std::vector<VarValue> row(arity);
  for (size_t r = 0; r < rows; ++r) {
    for (auto& v : row) {
      v = static_cast<VarValue>(rng.UniformInt(-2000000000, 2000000000));
    }
    t->AppendRow(row, rng.UniformDouble(-1e6, 1e6));
  }
  return t;
}

// The one-pass codec writes exactly the per-value writer's bytes, and reads
// them back bit for bit: a 5,000-row one-variable answer, a wider table
// held in sealed (chunked) measure storage, and an approximate result with
// its bound tables.
TEST(NetWireTest, RowBlockCodecMatchesPerValueWriter) {
  ResultFrame plain;
  plain.request_id = 7;
  plain.snapshot_epoch = 3;
  plain.table = RandomResultTable("answer", 1, 5000, 1);
  ResultFrame sealed;
  sealed.request_id = 8;
  sealed.epoch_inexact = true;
  sealed.table = RandomResultTable("wide", 3, 2500, 2);
  sealed.table->SealChunked();
  ResultFrame approx;
  approx.request_id = 9;
  approx.approximate = true;
  approx.deadline_degraded = true;
  approx.samples = 12345;
  approx.bound_gap = 0.25;
  approx.table = RandomResultTable("estimate", 2, 300, 3);
  approx.lower = RandomResultTable("lower", 2, 300, 4);
  approx.upper = RandomResultTable("upper", 2, 300, 5);
  for (const ResultFrame* res : {&plain, &sealed, &approx}) {
    std::vector<uint8_t> bytes;
    EncodeResult(*res, &bytes);
    EXPECT_EQ(bytes, LegacyEncodeResult(*res)) << res->request_id;
    Frame frame = DecodeOne(bytes);
    ASSERT_EQ(frame.type, FrameType::kResult);
    EXPECT_TRUE(fr::TablesEqual(*res->table, *frame.result.table, 0.0));
    EXPECT_EQ(frame.result.table->name(), res->table->name());
    if (res->approximate) {
      EXPECT_TRUE(fr::TablesEqual(*res->lower, *frame.result.lower, 0.0));
      EXPECT_TRUE(fr::TablesEqual(*res->upper, *frame.result.upper, 0.0));
    }
  }
}

TEST(NetWireTest, ResultRoundtripEmptyTable) {
  ResultFrame res;
  res.request_id = 9;
  res.table = std::make_shared<Table>("empty", Schema({}, "f"));
  std::vector<uint8_t> bytes;
  EncodeResult(res, &bytes);
  Frame frame = DecodeOne(bytes);
  ASSERT_EQ(frame.type, FrameType::kResult);
  EXPECT_FALSE(frame.result.plan_cache_hit);
  EXPECT_FALSE(frame.result.epoch_inexact);
  EXPECT_EQ(frame.result.table->NumRows(), 0u);
  EXPECT_EQ(frame.result.table->schema().arity(), 0u);
}

TEST(NetWireTest, ErrorRoundtrip) {
  ErrorFrame err;
  err.request_id = 77;
  err.code = StatusCode::kResourceExhausted;
  err.retryable = true;
  err.retry_after_ms = 230;
  err.message = "request shed: estimated queue wait exceeds deadline";

  std::vector<uint8_t> bytes;
  EncodeError(err, &bytes);
  Frame frame = DecodeOne(bytes);
  ASSERT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.error.request_id, 77u);
  EXPECT_EQ(frame.error.code, StatusCode::kResourceExhausted);
  EXPECT_TRUE(frame.error.retryable);
  EXPECT_EQ(frame.error.retry_after_ms, 230u);
  EXPECT_EQ(frame.error.message, err.message);
}

TEST(NetWireTest, MetricsRoundtrips) {
  std::vector<uint8_t> bytes;
  EncodeMetricsRequest(MetricsRequestFrame{13}, &bytes);
  Frame frame = DecodeOne(bytes);
  ASSERT_EQ(frame.type, FrameType::kMetrics);
  EXPECT_EQ(frame.metrics.request_id, 13u);

  bytes.clear();
  EncodeMetricsReply(MetricsReplyFrame{13, "server_completed 8\n"}, &bytes);
  frame = DecodeOne(bytes);
  ASSERT_EQ(frame.type, FrameType::kMetricsReply);
  EXPECT_EQ(frame.metrics_reply.request_id, 13u);
  EXPECT_EQ(frame.metrics_reply.text, "server_completed 8\n");
}

TEST(NetWireTest, ByteAtATimeFeeding) {
  // A frame split into 1-byte appends must produce no frame until the last
  // byte lands — exactly what short reads under fault injection exercise.
  QueryRequestFrame req;
  req.request_id = 5;
  req.view = "v";
  req.query.group_vars = {"x"};
  std::vector<uint8_t> bytes;
  EncodeQuery(req, &bytes);

  FrameReader reader;
  Frame frame;
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    reader.Append(&bytes[i], 1);
    auto got = reader.Next(&frame);
    ASSERT_TRUE(got.ok());
    EXPECT_FALSE(*got) << "frame surfaced early at byte " << i;
  }
  reader.Append(&bytes[bytes.size() - 1], 1);
  auto got = reader.Next(&frame);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(*got);
  EXPECT_EQ(frame.query.request_id, 5u);
}

TEST(NetWireTest, PipelinedFramesInOneBuffer) {
  std::vector<uint8_t> bytes;
  for (uint64_t id = 1; id <= 5; ++id) {
    QueryRequestFrame req;
    req.request_id = id;
    req.view = "v" + std::to_string(id);
    EncodeQuery(req, &bytes);
  }
  FrameReader reader;
  reader.Append(bytes.data(), bytes.size());
  for (uint64_t id = 1; id <= 5; ++id) {
    Frame frame;
    auto got = reader.Next(&frame);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(*got);
    EXPECT_EQ(frame.query.request_id, id);
    EXPECT_EQ(frame.query.view, "v" + std::to_string(id));
  }
  Frame frame;
  auto got = reader.Next(&frame);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(*got);
}

TEST(NetWireTest, LongLivedReaderCompacts) {
  // Thousands of frames through one reader: buffered_bytes stays bounded
  // by one frame, i.e. the consumed prefix is actually reclaimed.
  QueryRequestFrame req;
  req.request_id = 1;
  req.view = std::string(512, 'v');
  std::vector<uint8_t> bytes;
  EncodeQuery(req, &bytes);

  FrameReader reader;
  Frame frame;
  for (int i = 0; i < 4000; ++i) {
    reader.Append(bytes.data(), bytes.size());
    auto got = reader.Next(&frame);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(*got);
    ASSERT_LE(reader.buffered_bytes(), bytes.size());
  }
}

TEST(NetWireTest, RejectsUnknownFrameType) {
  std::vector<uint8_t> bytes = {1, 0, 0, 0, /*type=*/99, /*payload=*/0};
  FrameReader reader;
  reader.Append(bytes.data(), bytes.size());
  Frame frame;
  auto got = reader.Next(&frame);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetWireTest, RejectsHostileLengthPrefix) {
  // 4 GiB-ish length: must be rejected from the header alone, before any
  // attempt to buffer that much.
  std::vector<uint8_t> bytes = {0xFF, 0xFF, 0xFF, 0xFF, 1};
  FrameReader reader;
  reader.Append(bytes.data(), bytes.size());
  Frame frame;
  auto got = reader.Next(&frame);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetWireTest, RejectsTruncatedPayload) {
  QueryRequestFrame req;
  req.request_id = 1;
  req.view = "view";
  std::vector<uint8_t> bytes;
  EncodeQuery(req, &bytes);
  // Chop the last 2 payload bytes and shrink the length prefix to match:
  // the frame is "complete" per the header but decodes short.
  bytes.resize(bytes.size() - 2);
  uint32_t len = static_cast<uint32_t>(bytes.size()) -
                 static_cast<uint32_t>(server::net::kFrameHeaderBytes);
  for (int i = 0; i < 4; ++i) {
    bytes[static_cast<size_t>(i)] = static_cast<uint8_t>(len >> (8 * i));
  }
  FrameReader reader;
  reader.Append(bytes.data(), bytes.size());
  Frame frame;
  auto got = reader.Next(&frame);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetWireTest, RejectsTrailingGarbage) {
  QueryRequestFrame req;
  req.request_id = 1;
  req.view = "view";
  std::vector<uint8_t> bytes;
  EncodeQuery(req, &bytes);
  // Append garbage inside the frame and grow the length prefix to cover it.
  bytes.push_back(0xAB);
  bytes.push_back(0xCD);
  uint32_t len = static_cast<uint32_t>(bytes.size()) -
                 static_cast<uint32_t>(server::net::kFrameHeaderBytes);
  for (int i = 0; i < 4; ++i) {
    bytes[static_cast<size_t>(i)] = static_cast<uint8_t>(len >> (8 * i));
  }
  FrameReader reader;
  reader.Append(bytes.data(), bytes.size());
  Frame frame;
  auto got = reader.Next(&frame);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetWireTest, RejectsImplausibleListCount) {
  // Hand-build a query frame whose group-var count claims 2^30 entries;
  // the decoder must reject the count, not attempt the reserve.
  std::vector<uint8_t> payload;
  auto put_u32 = [&payload](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      payload.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  for (int i = 0; i < 8; ++i) payload.push_back(0);  // request_id
  payload.push_back(0);                              // flags
  put_u32(0);                                        // deadline_ms
  put_u32(1);                                        // view length
  payload.push_back('v');
  put_u32(0);             // optimizer length
  put_u32(1u << 30);      // group count: implausible
  std::vector<uint8_t> bytes;
  uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<uint8_t>(len >> (8 * i)));
  }
  bytes.push_back(static_cast<uint8_t>(FrameType::kQuery));
  bytes.insert(bytes.end(), payload.begin(), payload.end());

  FrameReader reader;
  reader.Append(bytes.data(), bytes.size());
  Frame frame;
  auto got = reader.Next(&frame);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetWireTest, RejectsBadStatusCodeInErrorFrame) {
  ErrorFrame err;
  err.request_id = 1;
  err.code = StatusCode::kInternal;
  err.message = "x";
  std::vector<uint8_t> bytes;
  EncodeError(err, &bytes);
  // Patch the code byte (payload offset 8) to an out-of-range value.
  bytes[server::net::kFrameHeaderBytes + 8] = 0xEE;
  FrameReader reader;
  reader.Append(bytes.data(), bytes.size());
  Frame frame;
  auto got = reader.Next(&frame);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetWireTest, RejectsRowBlockSizeMismatch) {
  ResultFrame res;
  res.request_id = 3;
  auto table = std::make_shared<Table>("t", Schema({"x"}, "f"));
  table->AppendRow({1}, 2.0);
  res.table = table;
  std::vector<uint8_t> bytes;
  EncodeResult(res, &bytes);
  // Inflate the claimed row count without supplying the bytes. The row
  // count sits right before the 12-byte row block (1 i32 + 1 f64).
  size_t count_off = bytes.size() - 12 - 4;
  bytes[count_off] = 7;
  FrameReader reader;
  reader.Append(bytes.data(), bytes.size());
  Frame frame;
  auto got = reader.Next(&frame);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

// --- approximate-query extension -------------------------------------------

TEST(NetWireTest, ApproxQueryRoundtripCarriesKnobs) {
  QueryRequestFrame req;
  req.request_id = 77;
  req.approx = true;
  req.eps = 0.015625;  // exactly representable: roundtrip must be bitwise
  req.max_rounds = 129;
  req.seed = 0x1234ABCD5678EF00ull;
  req.deadline_ms = 400;
  req.view = "cyclic_view";
  req.query.group_vars = {"x0"};
  req.query.having = HavingClause{CompareOp::kGe, 0.5};

  std::vector<uint8_t> bytes;
  EncodeQuery(req, &bytes);
  Frame frame = DecodeOne(bytes);
  ASSERT_EQ(frame.type, FrameType::kQuery);
  EXPECT_TRUE(frame.query.approx);
  EXPECT_EQ(frame.query.eps, 0.015625);
  EXPECT_EQ(frame.query.max_rounds, 129u);
  EXPECT_EQ(frame.query.seed, 0x1234ABCD5678EF00ull);
  EXPECT_EQ(frame.query.deadline_ms, 400u);
  ASSERT_TRUE(frame.query.query.having.has_value());
}

TEST(NetWireTest, ApproxQueryFlagAbsentLeavesDefaults) {
  // A legacy (non-approx) frame must decode with the approx knobs at their
  // defaults — the extension is strictly flag-gated.
  QueryRequestFrame req;
  req.request_id = 5;
  req.view = "v";
  std::vector<uint8_t> bytes;
  EncodeQuery(req, &bytes);
  Frame frame = DecodeOne(bytes);
  ASSERT_EQ(frame.type, FrameType::kQuery);
  EXPECT_FALSE(frame.query.approx);
  EXPECT_EQ(frame.query.eps, 0.05);
  EXPECT_EQ(frame.query.max_rounds, 64u);
  EXPECT_EQ(frame.query.seed, 0u);
}

TEST(NetWireTest, ApproxResultRoundtripWithBoundTables) {
  auto estimate = std::make_shared<Table>("est", Schema({"x"}, "f"));
  estimate->AppendRow({0}, 0.25);
  estimate->AppendRow({1}, 0.75);
  auto lower = std::make_shared<Table>("lo", Schema({"x"}, "f"));
  lower->AppendRow({0}, 0.125);
  lower->AppendRow({1}, 1.0 / 3.0);
  auto upper = std::make_shared<Table>("hi", Schema({"x"}, "f"));
  upper->AppendRow({0}, 0.5);
  upper->AppendRow({1}, -0.0);  // signed zero must survive in bound tables

  ResultFrame res;
  res.request_id = 11;
  res.snapshot_epoch = 3;
  res.approximate = true;
  res.deadline_degraded = true;
  res.samples = 4096;
  res.bound_gap = 0.375;
  res.table = estimate;
  res.lower = lower;
  res.upper = upper;

  std::vector<uint8_t> bytes;
  EncodeResult(res, &bytes);
  Frame frame = DecodeOne(bytes);
  ASSERT_EQ(frame.type, FrameType::kResult);
  const ResultFrame& out = frame.result;
  EXPECT_TRUE(out.approximate);
  EXPECT_TRUE(out.deadline_degraded);
  EXPECT_EQ(out.samples, 4096u);
  EXPECT_EQ(out.bound_gap, 0.375);
  ASSERT_NE(out.lower, nullptr);
  ASSERT_NE(out.upper, nullptr);
  EXPECT_TRUE(fr::TablesEqual(*estimate, *out.table, 0.0));
  EXPECT_TRUE(fr::TablesEqual(*lower, *out.lower, 0.0));
  EXPECT_TRUE(fr::TablesEqual(*upper, *out.upper, 0.0));
  EXPECT_TRUE(std::signbit(out.upper->measure(1)));
}

TEST(NetWireTest, ApproxResultWithoutFlagOmitsBoundPayload) {
  // Non-approx results carry no bound payload: an encode of a plain result
  // followed by a decode must leave the extras reset even if the structs
  // were dirtied beforehand.
  ResultFrame res;
  res.request_id = 2;
  res.table = std::make_shared<Table>("t", Schema({"x"}, "f"));
  res.table->AppendRow({4}, 2.0);
  std::vector<uint8_t> plain_bytes;
  EncodeResult(res, &plain_bytes);

  ResultFrame approx = res;
  approx.approximate = true;
  approx.lower = res.table;
  approx.upper = res.table;
  std::vector<uint8_t> approx_bytes;
  EncodeResult(approx, &approx_bytes);
  EXPECT_LT(plain_bytes.size(), approx_bytes.size());

  Frame frame = DecodeOne(plain_bytes);
  ASSERT_EQ(frame.type, FrameType::kResult);
  EXPECT_FALSE(frame.result.approximate);
  EXPECT_FALSE(frame.result.deadline_degraded);
  EXPECT_EQ(frame.result.samples, 0u);
  EXPECT_EQ(frame.result.bound_gap, 0.0);
  EXPECT_EQ(frame.result.lower, nullptr);
  EXPECT_EQ(frame.result.upper, nullptr);
}

TEST(NetWireTest, ApproxRejectsTruncatedBoundTables) {
  ResultFrame res;
  res.request_id = 6;
  res.approximate = true;
  res.samples = 10;
  res.bound_gap = 0.5;
  auto t = std::make_shared<Table>("t", Schema({"x"}, "f"));
  t->AppendRow({1}, 2.0);
  res.table = t;
  res.lower = t;
  res.upper = t;
  std::vector<uint8_t> full;
  EncodeResult(res, &full);

  // Every truncation point inside the appended approx payload must be
  // rejected, never silently accepted or over-read.
  std::vector<uint8_t> plain_len;
  {
    ResultFrame p = res;
    p.approximate = false;
    EncodeResult(p, &plain_len);
  }
  for (size_t cut = plain_len.size(); cut < full.size(); ++cut) {
    std::vector<uint8_t> bytes(full.begin(),
                               full.begin() + static_cast<long>(cut));
    uint32_t len = static_cast<uint32_t>(bytes.size()) -
                   static_cast<uint32_t>(server::net::kFrameHeaderBytes);
    for (int i = 0; i < 4; ++i) {
      bytes[static_cast<size_t>(i)] = static_cast<uint8_t>(len >> (8 * i));
    }
    FrameReader reader;
    reader.Append(bytes.data(), bytes.size());
    Frame frame;
    auto got = reader.Next(&frame);
    ASSERT_FALSE(got.ok()) << "accepted truncation at " << cut;
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(NetWireTest, ApproxRejectsInflatedInnerRowCount) {
  // Inflate the lower-bound table's row count: the inner block bounds check
  // (Need) must fail instead of reading into the upper table's bytes.
  ResultFrame res;
  res.request_id = 8;
  res.approximate = true;
  auto t = std::make_shared<Table>("t", Schema({"x"}, "f"));
  t->AppendRow({1}, 2.0);
  res.table = t;
  res.lower = t;
  res.upper = t;
  std::vector<uint8_t> bytes;
  EncodeResult(res, &bytes);
  // The upper table block is last: 4+1 (name "t") + 4+1 (measure "f") + 4
  // (arity) + 4+1 (var "x") + 4 (row count) + 12 (one row) = 35 bytes. The
  // lower block of identical shape sits right before it; its row count is
  // 12 + 4 bytes from its own block's end.
  const size_t upper_block = 5 + 5 + 4 + 5 + 4 + 12;
  size_t lower_count_off = bytes.size() - upper_block - 12 - 4;
  bytes[lower_count_off] = 200;
  FrameReader reader;
  reader.Append(bytes.data(), bytes.size());
  Frame frame;
  auto got = reader.Next(&frame);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mpfdb
