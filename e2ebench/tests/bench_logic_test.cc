// Tests of the benchmark's own logic: percentile selection, self-time
// subtraction and closure error on hand-built span trees, and seeded
// request streams.
//
//   python3 e2ebench/run.py --self-test

#include <cstdio>
#include <string>
#include <vector>

#include "bench_logic.h"

using namespace mpfdb;
using namespace mpfdb::e2ebench;

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

void TestPercentile() {
  // Nearest rank: the smallest value with at least q*n values at or below.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT(Percentile(v, 0.5) == 50);
  EXPECT(Percentile(v, 0.9) == 90);
  EXPECT(Percentile(v, 0.99) == 99);
  EXPECT(Percentile(v, 1.0) == 100);
  EXPECT(Percentile({7}, 0.9) == 7);
  EXPECT(Percentile({}, 0.5) == 0);
  // Ten values: p90 is the 9th smallest, not an interpolation.
  EXPECT(Percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 1000}, 0.9) == 9);
  EXPECT(Percentile({1, 2, 3, 4}, 0.5) == 2);
  // A tail percentile needs ten samples beyond it.
  EXPECT(PercentileSupported(100, 0.9));
  EXPECT(!PercentileSupported(99, 0.9));
  EXPECT(!PercentileSupported(999, 0.99));
  EXPECT(PercentileSupported(1000, 0.99));
  EXPECT(!PercentileSupported(0, 0.5));
}

void TestSelfTimes() {
  // client [0, 100]
  //   session [10, 90]
  //     query [20, 80]
  //       plan [20, 30]
  //       execute [30, 80]
  //         replayed exec [1000, 1045]  (later pass: outside the parent)
  // unrelated root [0, 5]
  SpanLog log;
  const uint64_t client = log.Add(0, 7, "client", 0, 100);
  const uint64_t session = log.Add(client, 7, "server.session", 10, 90);
  const uint64_t query = log.Add(session, 7, "core.query", 20, 80);
  const uint64_t plan = log.Add(query, 7, "core.plan", 20, 30);
  const uint64_t execute = log.Add(query, 7, "core.execute", 30, 80);
  const uint64_t replay = log.Add(execute, 7, "exec.execute", 1000, 1045);
  const uint64_t other = log.Add(0, 8, "opt.optimize", 0, 5);
  const auto self = SelfTimes(log.spans());
  EXPECT(self.at(client) == 20);
  EXPECT(self.at(session) == 20);
  EXPECT(self.at(query) == 0);
  EXPECT(self.at(plan) == 10);
  EXPECT(self.at(execute) == 5);
  EXPECT(self.at(replay) == 45);
  EXPECT(self.at(other) == 5);
  // Self times of one tree sum to its root's duration.
  EXPECT(self.at(client) + self.at(session) + self.at(query) + self.at(plan) +
             self.at(execute) + self.at(replay) ==
         100);
  // A replayed child slower than its parent gives a negative self time;
  // it is not clamped.
  SpanLog slow;
  const uint64_t parent = slow.Add(0, 1, "client", 0, 10);
  slow.Add(parent, 1, "server.session", 100, 112);
  EXPECT(SelfTimes(slow.spans()).at(parent) == -2);
}

void TestClosureError() {
  // client [0, 100] > session [0, 90] > query [0, 80] > execute [0, 70],
  // with the replayed exec.execute under execute.
  auto tree = [](int64_t session_ns, int64_t replay_ns) {
    SpanLog log;
    const uint64_t client = log.Add(0, 1, "client", 0, 100);
    const uint64_t session = log.Add(client, 1, "server.session", 0,
                                     session_ns);
    const uint64_t query = log.Add(session, 1, "core.query", 0, 80);
    const uint64_t execute = log.Add(query, 1, "core.execute", 0, 70);
    log.Add(execute, 1, "exec.execute", 0, replay_ns);
    return log.spans();
  };
  // Every boundary nested, replay as long as the served execution.
  EXPECT(ClosureError(tree(90, 70), "core.execute") == 0);
  // The replay gap counts either way.
  EXPECT(ClosureError(tree(90, 64), "core.execute") == 6);
  EXPECT(ClosureError(tree(90, 75), "core.execute") == 5);
  // A replayed session call slower than the wire call around it leaves the
  // wire layer at -5 and the session layer inflated by 5: the sum still
  // closes, but the error shows it.
  EXPECT(ClosureError(tree(105, 70), "core.execute") == 5);
  EXPECT(ClosureError(tree(105, 64), "core.execute") == 11);
}

std::string StreamBytes(const StreamShape& shape, uint64_t seed, int client,
                        int n) {
  RequestStream stream(shape, seed, client);
  std::string bytes;
  for (int i = 0; i < n; ++i) EncodeRequest(stream.Next(), &bytes);
  return bytes;
}

void TestStreams() {
  StreamShape olap;
  for (const char* var : {"cid", "tid", "wid", "pid"}) {
    olap.read_block.push_back({MpfQuerySpec{{var}, {}}, 1});
  }
  StreamShape bn;
  bn.bn_vars = 40;
  bn.bn_domain = 3;
  bn.clients = 2;
  StreamShape rw;
  rw.read_kind = OpKind::kCachedQuery;
  rw.read_block = {{MpfQuerySpec{{"pid"}, {}}, 3},
                   {MpfQuerySpec{{"cid"}, {{"tid", 0}}}, 1}};
  rw.writes_per_block = 4;
  rw.update_rows = 101;
  rw.clients = 2;
  for (const StreamShape* shape : {&olap, &bn, &rw}) {
    EXPECT(StreamBytes(*shape, 42, 0, 500) == StreamBytes(*shape, 42, 0, 500));
    EXPECT(StreamBytes(*shape, 42, 0, 500) != StreamBytes(*shape, 43, 0, 500));
    EXPECT(StreamBytes(*shape, 42, 0, 500) != StreamBytes(*shape, 42, 1, 500));
  }
  // A block holds each read spec `weight` times and the writes, so the mix
  // is exact; writes stay on this client's rows.
  RequestStream stream(rw, 9, 1);
  int pid = 0, restricted = 0, writes = 0;
  for (int i = 0; i < 8 * 100; ++i) {
    Request r = stream.Next();
    if (r.kind == OpKind::kUpdate) {
      ++writes;
      EXPECT(r.update_row % 2 == 1 && r.update_row < 101);
    } else {
      EXPECT(r.kind == OpKind::kCachedQuery);
      (r.restricted ? restricted : pid)++;
    }
  }
  EXPECT(pid == 300 && restricted == 100 && writes == 400);
  // BN requests: one query variable and a different evidence variable.
  RequestStream bn_stream(bn, 5, 0);
  for (int i = 0; i < 1000; ++i) {
    Request r = bn_stream.Next();
    EXPECT(r.spec.group_vars.size() == 1 && r.spec.selections.size() == 1);
    EXPECT(r.spec.group_vars[0] != r.spec.selections[0].var);
    EXPECT(r.spec.selections[0].value >= 0 && r.spec.selections[0].value < 3);
  }
}

void TestResultLine() {
  const std::string line =
      ResultLine(true, 10, 0, {{"a_ms", 1.25, "ms"}, {"b", 3, "count"}});
  EXPECT(line ==
         "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": "
         "{\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": "
         "3, \"unit\": \"count\"}}}");
}

}  // namespace

int main() {
  TestPercentile();
  TestSelfTimes();
  TestClosureError();
  TestStreams();
  TestResultLine();
  if (failures == 0) std::printf("e2ebench logic tests passed\n");
  return failures == 0 ? 0 : 1;
}
