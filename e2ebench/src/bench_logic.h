// The end-to-end benchmark's own logic, kept free of timing and sockets so
// that it can be tested on its own: seeded request streams, tail percentile
// selection, span records with self-time subtraction, and the JSON result
// line.
#ifndef MPFDB_E2EBENCH_BENCH_LOGIC_H_
#define MPFDB_E2EBENCH_BENCH_LOGIC_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "plan/plan.h"
#include "storage/table.h"
#include "util/rng.h"

namespace mpfdb::e2ebench {

// --- Request streams -------------------------------------------------------

enum class OpKind : uint8_t { kQuery = 0, kCachedQuery = 1, kUpdate = 2 };

struct Request {
  uint64_t id = 0;  // (client << 40) | sequence number within the client
  OpKind kind = OpKind::kQuery;
  MpfQuerySpec spec;      // kQuery / kCachedQuery
  bool restricted = false;  // spec has a selection (Theorem 5 path if cached)
  uint64_t update_row = 0;  // kUpdate: row index into the update table
  uint32_t update_serial = 0;  // kUpdate: client-local write number
};

// What a workload's request stream is made of. Pure data, so the stream can
// be generated and compared without a database.
struct StreamShape {
  // Read specs and how many times each appears in one shuffled block. A
  // block holds every spec exactly `weight` times, so the mix in any run is
  // exact to within one block, and the seed only changes the order.
  std::vector<std::pair<MpfQuerySpec, int>> read_block;
  OpKind read_kind = OpKind::kQuery;
  // Writes per block (0 = read-only). Each write picks a random row among
  // this client's share of [0, update_rows): rows r with r % clients ==
  // client, so clients never write the same row.
  int writes_per_block = 0;
  uint64_t update_rows = 0;
  int clients = 1;
  // When > 0, reads are instead single-variable marginals over variables
  // x0..x{bn_vars-1} of domain bn_domain with one random evidence
  // assignment: P(x_q | x_e = v), q != e. read_block is then unused.
  int bn_vars = 0;
  int64_t bn_domain = 0;
};

// One client's seeded request sequence. Requests are produced on demand, so
// a time-bounded run takes as many as it has time for, and a replay of the
// first n requests is exactly the same n requests.
class RequestStream {
 public:
  RequestStream(const StreamShape& shape, uint64_t seed, int client);
  Request Next();

 private:
  void RefillBlock();

  const StreamShape& shape_;
  int client_;
  // Defined bit for bit by its header, so a request stream is the same
  // bytes with every standard library (std:: distributions are not).
  SplitMix64 rng_;
  uint64_t seq_ = 0;
  uint32_t writes_ = 0;
  // Block slots: >= 0 is an index into read_block, -1 a write, -2 a BN read.
  std::vector<int> block_;
  size_t block_pos_ = 0;
};

// Appends a canonical byte encoding of `r` (used to compare streams).
void EncodeRequest(const Request& r, std::string* out);

// --- Percentiles -----------------------------------------------------------

// Nearest-rank percentile of `values` (sorted or not): the smallest value
// with at least q * n values at or below it, q in (0, 1]. 0 when empty.
double Percentile(std::vector<double> values, double q);

// Whether a sample of n values has at least `min_beyond` values above the
// q-percentile, so that the percentile is supported by the data.
bool PercentileSupported(size_t n, double q, size_t min_beyond = 10);

// --- Spans -----------------------------------------------------------------

// One timed call at a layer boundary. Times are steady-clock nanoseconds.
// A span's parent is the call that caused it. A child replayed at an inner
// boundary runs after its parent, not inside its interval; `request` ties
// the spans of one request together.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t request = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

// Thread-safe in-memory span store; written out once, when the run ends.
class SpanLog {
 public:
  // Records a span and returns its id (ids start at 1).
  uint64_t Add(uint64_t parent, uint64_t request, std::string name,
               int64_t start_ns, int64_t end_ns);
  std::vector<Span> spans() const;
  // One JSON object per line. Returns false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// Self time of every span: its duration minus the durations of its direct
// children. Children of one span are sequential calls (or replays of such
// calls), never concurrent, so the sum of their durations is the part of
// the parent they account for. The result is not clamped: per request a
// replayed child can run slower than its parent, and clamping would bias
// the aggregate upward. Keyed by span id.
std::map<uint64_t, int64_t> SelfTimes(const std::vector<Span>& spans);

// How far the self times of one span tree, which always add up to its
// root, are from describing it: |self time| of the span named `gap` (a
// remainder no layer owns) plus the size of every other negative self time
// (a replayed child that ran longer than the call it is nested in). 0 when
// every child nests inside its parent and `gap` is empty.
int64_t ClosureError(const std::vector<Span>& spans, const std::string& gap);

// --- Results ---------------------------------------------------------------

// FNV-1a over the result's variable names, row values and measure bits:
// equal hashes for bit-identical tables.
uint64_t TableBitsHash(const Table& table);
// Bit-for-bit equality: same variables, same rows, same measure bits.
bool SameBits(const Table& a, const Table& b);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The run's last stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace mpfdb::e2ebench

#endif  // MPFDB_E2EBENCH_BENCH_LOGIC_H_
