#include "server/net/wire.h"

#include <cstring>

#include "storage/schema.h"

namespace mpfdb::server::net {

namespace {

// --- little-endian fixed-width fields -----------------------------------

void StoreU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

void StoreU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i) r |= static_cast<uint32_t>(p[i]) << (8 * i);
  return r;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) r |= static_cast<uint64_t>(p[i]) << (8 * i);
  return r;
}

uint64_t F64Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double F64FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// --- primitive writers ----------------------------------------------------

void PutU8(uint8_t v, std::vector<uint8_t>* out) { out->push_back(v); }

void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + 4);
  StoreU32(out->data() + at, v);
}

void PutU64(uint64_t v, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + 8);
  StoreU64(out->data() + at, v);
}

void PutI32(int32_t v, std::vector<uint8_t>* out) {
  PutU32(static_cast<uint32_t>(v), out);
}

void PutF64(double v, std::vector<uint8_t>* out) { PutU64(F64Bits(v), out); }

void PutString(const std::string& s, std::vector<uint8_t>* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->insert(out->end(), s.begin(), s.end());
}

// Reserves the 5-byte header, returning the offset where the payload
// starts; FinishFrame back-patches the length once the payload is written.
size_t BeginFrame(FrameType type, std::vector<uint8_t>* out) {
  PutU32(0, out);
  PutU8(static_cast<uint8_t>(type), out);
  return out->size();
}

void FinishFrame(size_t payload_start, std::vector<uint8_t>* out) {
  StoreU32(out->data() + payload_start - kFrameHeaderBytes,
           static_cast<uint32_t>(out->size() - payload_start));
}

// --- primitive readers ----------------------------------------------------

// Bounds-checked cursor over one frame's payload.
struct Cursor {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;

  bool Need(size_t n) const { return size - pos >= n; }

  Status TakeU8(uint8_t* v) {
    if (!Need(1)) return Status::InvalidArgument("frame payload truncated");
    *v = data[pos++];
    return Status::Ok();
  }

  Status TakeU32(uint32_t* v) {
    if (!Need(4)) return Status::InvalidArgument("frame payload truncated");
    *v = LoadU32(data + pos);
    pos += 4;
    return Status::Ok();
  }

  Status TakeU64(uint64_t* v) {
    if (!Need(8)) return Status::InvalidArgument("frame payload truncated");
    *v = LoadU64(data + pos);
    pos += 8;
    return Status::Ok();
  }

  Status TakeI32(int32_t* v) {
    uint32_t u;
    MPFDB_RETURN_IF_ERROR(TakeU32(&u));
    *v = static_cast<int32_t>(u);
    return Status::Ok();
  }

  Status TakeF64(double* v) {
    uint64_t bits;
    MPFDB_RETURN_IF_ERROR(TakeU64(&bits));
    *v = F64FromBits(bits);
    return Status::Ok();
  }

  Status TakeString(std::string* s) {
    uint32_t len;
    MPFDB_RETURN_IF_ERROR(TakeU32(&len));
    if (!Need(len)) return Status::InvalidArgument("frame string truncated");
    s->assign(reinterpret_cast<const char*>(data + pos), len);
    pos += len;
    return Status::Ok();
  }

  Status ExpectDone() const {
    if (pos != size) {
      return Status::InvalidArgument("frame payload has trailing bytes");
    }
    return Status::Ok();
  }
};

// Caps on repeated-element counts inside a payload, so a corrupt count
// can't drive a multi-gigabyte allocation before the byte-bounds check
// naturally fails.
constexpr uint32_t kMaxListElems = 1u << 20;

Status DecodeQuery(Cursor* c, QueryRequestFrame* out) {
  MPFDB_RETURN_IF_ERROR(c->TakeU64(&out->request_id));
  uint8_t flags;
  MPFDB_RETURN_IF_ERROR(c->TakeU8(&flags));
  out->cached = (flags & 1) != 0;
  out->approx = (flags & 2) != 0;
  MPFDB_RETURN_IF_ERROR(c->TakeU32(&out->deadline_ms));
  MPFDB_RETURN_IF_ERROR(c->TakeString(&out->view));
  MPFDB_RETURN_IF_ERROR(c->TakeString(&out->optimizer));
  uint32_t n_group;
  MPFDB_RETURN_IF_ERROR(c->TakeU32(&n_group));
  if (n_group > kMaxListElems) {
    return Status::InvalidArgument("query frame: group count implausible");
  }
  out->query.group_vars.clear();
  out->query.group_vars.reserve(n_group);
  for (uint32_t i = 0; i < n_group; ++i) {
    std::string var;
    MPFDB_RETURN_IF_ERROR(c->TakeString(&var));
    out->query.group_vars.push_back(std::move(var));
  }
  uint32_t n_sel;
  MPFDB_RETURN_IF_ERROR(c->TakeU32(&n_sel));
  if (n_sel > kMaxListElems) {
    return Status::InvalidArgument("query frame: selection count implausible");
  }
  out->query.selections.clear();
  out->query.selections.reserve(n_sel);
  for (uint32_t i = 0; i < n_sel; ++i) {
    QuerySelection sel;
    MPFDB_RETURN_IF_ERROR(c->TakeString(&sel.var));
    MPFDB_RETURN_IF_ERROR(c->TakeI32(&sel.value));
    out->query.selections.push_back(std::move(sel));
  }
  uint8_t has_having;
  MPFDB_RETURN_IF_ERROR(c->TakeU8(&has_having));
  if (has_having != 0) {
    uint8_t op;
    HavingClause having;
    MPFDB_RETURN_IF_ERROR(c->TakeU8(&op));
    if (op > static_cast<uint8_t>(CompareOp::kNe)) {
      return Status::InvalidArgument("query frame: bad compare op");
    }
    having.op = static_cast<CompareOp>(op);
    MPFDB_RETURN_IF_ERROR(c->TakeF64(&having.threshold));
    out->query.having = having;
  } else {
    out->query.having.reset();
  }
  if (out->approx) {
    MPFDB_RETURN_IF_ERROR(c->TakeF64(&out->eps));
    MPFDB_RETURN_IF_ERROR(c->TakeU32(&out->max_rounds));
    MPFDB_RETURN_IF_ERROR(c->TakeU64(&out->seed));
  } else {
    out->eps = 0.05;
    out->max_rounds = 64;
    out->seed = 0;
  }
  return c->ExpectDone();
}

// One serialized table: name, measure name, schema, then the row block.
// `exact_remaining` preserves the legacy framing rule for the single-table
// result: the row block must consume the rest of the payload exactly. Inner
// blocks of a multi-table (approx) result instead bounds-check against the
// bytes available, so a corrupt row count still can't drive an oversized
// allocation.
Status DecodeTableBlock(Cursor* c, bool exact_remaining, TablePtr* out) {
  std::string table_name, measure_name;
  MPFDB_RETURN_IF_ERROR(c->TakeString(&table_name));
  MPFDB_RETURN_IF_ERROR(c->TakeString(&measure_name));
  uint32_t arity;
  MPFDB_RETURN_IF_ERROR(c->TakeU32(&arity));
  if (arity > kMaxListElems) {
    return Status::InvalidArgument("result frame: arity implausible");
  }
  std::vector<std::string> vars;
  vars.reserve(arity);
  for (uint32_t i = 0; i < arity; ++i) {
    std::string var;
    MPFDB_RETURN_IF_ERROR(c->TakeString(&var));
    vars.push_back(std::move(var));
  }
  uint32_t n_rows;
  MPFDB_RETURN_IF_ERROR(c->TakeU32(&n_rows));
  // Check row-block bounds before allocating row storage.
  size_t row_bytes = static_cast<size_t>(arity) * 4 + 8;
  size_t block_bytes = static_cast<size_t>(n_rows) * row_bytes;
  if (exact_remaining ? c->size - c->pos != block_bytes
                      : !c->Need(block_bytes)) {
    return Status::InvalidArgument("result frame: row block size mismatch");
  }
  // The block is in bounds: read it in one pass, then append it in bulk.
  std::vector<VarValue> row_vars(static_cast<size_t>(n_rows) * arity);
  std::vector<double> measures(n_rows);
  const uint8_t* p = c->data + c->pos;
  VarValue* v = row_vars.data();
  for (uint32_t r = 0; r < n_rows; ++r) {
    for (uint32_t i = 0; i < arity; ++i, p += 4) {
      *v++ = static_cast<VarValue>(LoadU32(p));
    }
    measures[r] = F64FromBits(LoadU64(p));
    p += 8;
  }
  c->pos += block_bytes;
  auto table = std::make_shared<Table>(std::move(table_name),
                                       Schema(vars, measure_name));
  table->AppendRows(row_vars.data(), measures.data(), n_rows);
  *out = std::move(table);
  return Status::Ok();
}

Status DecodeResult(Cursor* c, ResultFrame* out) {
  MPFDB_RETURN_IF_ERROR(c->TakeU64(&out->request_id));
  MPFDB_RETURN_IF_ERROR(c->TakeU64(&out->snapshot_epoch));
  uint8_t flags;
  MPFDB_RETURN_IF_ERROR(c->TakeU8(&flags));
  out->plan_cache_hit = (flags & 1) != 0;
  out->epoch_inexact = (flags & 2) != 0;
  out->approximate = (flags & 4) != 0;
  out->deadline_degraded = (flags & 8) != 0;
  MPFDB_RETURN_IF_ERROR(DecodeTableBlock(c, !out->approximate, &out->table));
  if (out->approximate) {
    MPFDB_RETURN_IF_ERROR(c->TakeU64(&out->samples));
    MPFDB_RETURN_IF_ERROR(c->TakeF64(&out->bound_gap));
    MPFDB_RETURN_IF_ERROR(DecodeTableBlock(c, false, &out->lower));
    MPFDB_RETURN_IF_ERROR(DecodeTableBlock(c, false, &out->upper));
  } else {
    out->samples = 0;
    out->bound_gap = 0;
    out->lower.reset();
    out->upper.reset();
  }
  return c->ExpectDone();
}

Status DecodeError(Cursor* c, ErrorFrame* out) {
  MPFDB_RETURN_IF_ERROR(c->TakeU64(&out->request_id));
  uint8_t code;
  MPFDB_RETURN_IF_ERROR(c->TakeU8(&code));
  if (code > static_cast<uint8_t>(StatusCode::kResourceExhausted) ||
      code == static_cast<uint8_t>(StatusCode::kOk)) {
    return Status::InvalidArgument("error frame: bad status code");
  }
  out->code = static_cast<StatusCode>(code);
  uint8_t retryable;
  MPFDB_RETURN_IF_ERROR(c->TakeU8(&retryable));
  out->retryable = retryable != 0;
  MPFDB_RETURN_IF_ERROR(c->TakeU32(&out->retry_after_ms));
  MPFDB_RETURN_IF_ERROR(c->TakeString(&out->message));
  return c->ExpectDone();
}

Status DecodeMetricsRequest(Cursor* c, MetricsRequestFrame* out) {
  MPFDB_RETURN_IF_ERROR(c->TakeU64(&out->request_id));
  return c->ExpectDone();
}

Status DecodeMetricsReply(Cursor* c, MetricsReplyFrame* out) {
  MPFDB_RETURN_IF_ERROR(c->TakeU64(&out->request_id));
  MPFDB_RETURN_IF_ERROR(c->TakeString(&out->text));
  return c->ExpectDone();
}

Status DecodeUpdate(Cursor* c, UpdateRequestFrame* out) {
  MPFDB_RETURN_IF_ERROR(c->TakeU64(&out->request_id));
  uint32_t n_ops;
  MPFDB_RETURN_IF_ERROR(c->TakeU32(&n_ops));
  if (n_ops > kMaxListElems) {
    return Status::InvalidArgument("update frame: op count implausible");
  }
  out->ops.clear();
  out->ops.reserve(n_ops);
  for (uint32_t i = 0; i < n_ops; ++i) {
    UpdateOp op;
    MPFDB_RETURN_IF_ERROR(c->TakeString(&op.table));
    uint32_t arity;
    MPFDB_RETURN_IF_ERROR(c->TakeU32(&arity));
    if (arity > kMaxListElems) {
      return Status::InvalidArgument("update frame: arity implausible");
    }
    op.row_vars.reserve(arity);
    for (uint32_t j = 0; j < arity; ++j) {
      VarValue v;
      MPFDB_RETURN_IF_ERROR(c->TakeI32(&v));
      op.row_vars.push_back(v);
    }
    MPFDB_RETURN_IF_ERROR(c->TakeF64(&op.new_measure));
    out->ops.push_back(std::move(op));
  }
  return c->ExpectDone();
}

Status DecodeUpdateAck(Cursor* c, UpdateAckFrame* out) {
  MPFDB_RETURN_IF_ERROR(c->TakeU64(&out->request_id));
  MPFDB_RETURN_IF_ERROR(c->TakeU64(&out->epoch));
  return c->ExpectDone();
}

}  // namespace

void EncodeQuery(const QueryRequestFrame& frame, std::vector<uint8_t>* out) {
  size_t start = BeginFrame(FrameType::kQuery, out);
  PutU64(frame.request_id, out);
  PutU8(static_cast<uint8_t>((frame.cached ? 1 : 0) |
                             (frame.approx ? 2 : 0)),
        out);
  PutU32(frame.deadline_ms, out);
  PutString(frame.view, out);
  PutString(frame.optimizer, out);
  PutU32(static_cast<uint32_t>(frame.query.group_vars.size()), out);
  for (const auto& var : frame.query.group_vars) PutString(var, out);
  PutU32(static_cast<uint32_t>(frame.query.selections.size()), out);
  for (const auto& sel : frame.query.selections) {
    PutString(sel.var, out);
    PutI32(sel.value, out);
  }
  if (frame.query.having.has_value()) {
    PutU8(1, out);
    PutU8(static_cast<uint8_t>(frame.query.having->op), out);
    PutF64(frame.query.having->threshold, out);
  } else {
    PutU8(0, out);
  }
  if (frame.approx) {
    PutF64(frame.eps, out);
    PutU32(frame.max_rounds, out);
    PutU64(frame.seed, out);
  }
  FinishFrame(start, out);
}

namespace {

void PutTableBlock(const Table& table, std::vector<uint8_t>* out) {
  const Schema& schema = table.schema();
  const size_t rows = table.NumRows();
  const size_t arity = schema.arity();
  const size_t row_bytes = rows * (arity * 4 + 8);
  // Two string lengths, arity and row count (u32 each), the two strings,
  // then each variable name with its length, then the rows.
  size_t block_bytes = 16 + table.name().size() +
                       schema.measure_name().size() + row_bytes;
  for (const auto& var : schema.variables()) block_bytes += 4 + var.size();
  out->reserve(out->size() + block_bytes);
  PutString(table.name(), out);
  PutString(schema.measure_name(), out);
  PutU32(static_cast<uint32_t>(arity), out);
  for (const auto& var : schema.variables()) PutString(var, out);
  PutU32(static_cast<uint32_t>(rows), out);
  // The row block, written at fixed offsets.
  const size_t at = out->size();
  out->resize(at + row_bytes);
  uint8_t* p = out->data() + at;
  for (size_t r = 0; r < rows; ++r) {
    RowView row = table.Row(r);
    for (size_t i = 0; i < arity; ++i, p += 4) {
      StoreU32(p, static_cast<uint32_t>(row.vars[i]));
    }
    StoreU64(p, F64Bits(row.measure));
    p += 8;
  }
}

}  // namespace

void EncodeResult(const ResultFrame& frame, std::vector<uint8_t>* out) {
  size_t start = BeginFrame(FrameType::kResult, out);
  PutU64(frame.request_id, out);
  PutU64(frame.snapshot_epoch, out);
  PutU8(static_cast<uint8_t>((frame.plan_cache_hit ? 1 : 0) |
                             (frame.epoch_inexact ? 2 : 0) |
                             (frame.approximate ? 4 : 0) |
                             (frame.deadline_degraded ? 8 : 0)),
        out);
  PutTableBlock(*frame.table, out);
  if (frame.approximate) {
    PutU64(frame.samples, out);
    PutF64(frame.bound_gap, out);
    PutTableBlock(*frame.lower, out);
    PutTableBlock(*frame.upper, out);
  }
  FinishFrame(start, out);
}

void EncodeError(const ErrorFrame& frame, std::vector<uint8_t>* out) {
  size_t start = BeginFrame(FrameType::kError, out);
  PutU64(frame.request_id, out);
  PutU8(static_cast<uint8_t>(frame.code), out);
  PutU8(frame.retryable ? 1 : 0, out);
  PutU32(frame.retry_after_ms, out);
  PutString(frame.message, out);
  FinishFrame(start, out);
}

void EncodeMetricsRequest(const MetricsRequestFrame& frame,
                          std::vector<uint8_t>* out) {
  size_t start = BeginFrame(FrameType::kMetrics, out);
  PutU64(frame.request_id, out);
  FinishFrame(start, out);
}

void EncodeMetricsReply(const MetricsReplyFrame& frame,
                        std::vector<uint8_t>* out) {
  size_t start = BeginFrame(FrameType::kMetricsReply, out);
  PutU64(frame.request_id, out);
  PutString(frame.text, out);
  FinishFrame(start, out);
}

void EncodeUpdate(const UpdateRequestFrame& frame, std::vector<uint8_t>* out) {
  size_t start = BeginFrame(FrameType::kUpdate, out);
  PutU64(frame.request_id, out);
  PutU32(static_cast<uint32_t>(frame.ops.size()), out);
  for (const UpdateOp& op : frame.ops) {
    PutString(op.table, out);
    PutU32(static_cast<uint32_t>(op.row_vars.size()), out);
    for (VarValue v : op.row_vars) PutI32(v, out);
    PutF64(op.new_measure, out);
  }
  FinishFrame(start, out);
}

void EncodeUpdateAck(const UpdateAckFrame& frame, std::vector<uint8_t>* out) {
  size_t start = BeginFrame(FrameType::kUpdateAck, out);
  PutU64(frame.request_id, out);
  PutU64(frame.epoch, out);
  FinishFrame(start, out);
}

void FrameReader::Append(const uint8_t* data, size_t n) {
  // Compact once the consumed prefix dominates, so a long-lived connection
  // doesn't grow its read buffer without bound.
  if (consumed_ > 4096 && consumed_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

StatusOr<bool> FrameReader::Next(Frame* out) {
  size_t available = buf_.size() - consumed_;
  if (available < kFrameHeaderBytes) return false;
  const uint8_t* head = buf_.data() + consumed_;
  uint32_t payload_len = 0;
  for (int i = 0; i < 4; ++i) {
    payload_len |= static_cast<uint32_t>(head[i]) << (8 * i);
  }
  if (payload_len > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload length " +
                                   std::to_string(payload_len) +
                                   " exceeds protocol maximum");
  }
  if (available < kFrameHeaderBytes + payload_len) return false;
  uint8_t type = head[4];
  Cursor cursor{head + kFrameHeaderBytes, payload_len};
  Status decode_status;
  switch (type) {
    case static_cast<uint8_t>(FrameType::kQuery):
      out->type = FrameType::kQuery;
      decode_status = DecodeQuery(&cursor, &out->query);
      break;
    case static_cast<uint8_t>(FrameType::kResult):
      out->type = FrameType::kResult;
      decode_status = DecodeResult(&cursor, &out->result);
      break;
    case static_cast<uint8_t>(FrameType::kError):
      out->type = FrameType::kError;
      decode_status = DecodeError(&cursor, &out->error);
      break;
    case static_cast<uint8_t>(FrameType::kMetrics):
      out->type = FrameType::kMetrics;
      decode_status = DecodeMetricsRequest(&cursor, &out->metrics);
      break;
    case static_cast<uint8_t>(FrameType::kMetricsReply):
      out->type = FrameType::kMetricsReply;
      decode_status = DecodeMetricsReply(&cursor, &out->metrics_reply);
      break;
    case static_cast<uint8_t>(FrameType::kUpdate):
      out->type = FrameType::kUpdate;
      decode_status = DecodeUpdate(&cursor, &out->update);
      break;
    case static_cast<uint8_t>(FrameType::kUpdateAck):
      out->type = FrameType::kUpdateAck;
      decode_status = DecodeUpdateAck(&cursor, &out->update_ack);
      break;
    default:
      decode_status = Status::InvalidArgument(
          "unknown frame type " + std::to_string(static_cast<int>(type)));
  }
  if (!decode_status.ok()) return decode_status;
  consumed_ += kFrameHeaderBytes + payload_len;
  return true;
}

}  // namespace mpfdb::server::net
