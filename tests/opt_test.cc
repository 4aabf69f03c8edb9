#include <cmath>
#include <cstring>
#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "bn/bayes_net.h"
#include "exec/executor.h"
#include "fr/algebra.h"
#include "opt/cs.h"
#include "opt/optimizer.h"
#include "opt/ve.h"
#include "plan/plan_template.h"
#include "random_view.h"
#include "server/plan_cache.h"
#include "workload/generators.h"

namespace mpfdb::opt {
namespace {

using workload::GenerateSupplyChain;
using workload::SupplyChainParams;
using workload::SupplyChainSchema;

class SmallSupplyChainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SupplyChainParams params;
    params.scale = 0.005;  // pid=500, sid=50, wid=25, cid=5, tid=2
    params.seed = 321;
    auto schema = GenerateSupplyChain(params, catalog_);
    ASSERT_TRUE(schema.ok()) << schema.status();
    schema_ = *schema;
  }

  Catalog catalog_;
  SupplyChainSchema schema_;
  CostModel cost_model_;
};

TEST_F(SmallSupplyChainTest, CsProducesSingleRootGroupBy) {
  CsOptimizer cs;
  MpfQuerySpec query{{"wid"}, {}};
  auto plan = cs.Optimize(schema_.view, query, catalog_, cost_model_);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->GroupByCount(), 1);
  EXPECT_EQ((*plan)->kind, PlanNodeKind::kGroupBy);
  EXPECT_TRUE((*plan)->IsLinear());
  EXPECT_EQ((*plan)->JoinCount(), 4);
}

TEST_F(SmallSupplyChainTest, CsPlusNoWorseThanCs) {
  for (const auto& var : {"wid", "cid", "tid", "pid", "sid"}) {
    MpfQuerySpec query{{var}, {}};
    CsOptimizer cs;
    CsPlusOptimizer cs_plus_linear(false);
    CsPlusOptimizer cs_plus_nonlinear(true);
    auto p0 = cs.Optimize(schema_.view, query, catalog_, cost_model_);
    auto p1 =
        cs_plus_linear.Optimize(schema_.view, query, catalog_, cost_model_);
    auto p2 =
        cs_plus_nonlinear.Optimize(schema_.view, query, catalog_, cost_model_);
    ASSERT_TRUE(p0.ok() && p1.ok() && p2.ok());
    // The greedy-conservative guarantee: CS+ is no worse than the single
    // root-GroupBy plan, and the nonlinear space contains the linear one.
    EXPECT_LE((*p1)->est_cost, (*p0)->est_cost) << var;
    EXPECT_LE((*p2)->est_cost, (*p1)->est_cost) << var;
  }
}

TEST_F(SmallSupplyChainTest, ExtendedVeNoWorseThanPlainVe) {
  for (VeHeuristic h : {VeHeuristic::kDegree, VeHeuristic::kWidth,
                        VeHeuristic::kElimCost}) {
    for (const auto& var : {"wid", "cid", "sid"}) {
      MpfQuerySpec query{{var}, {}};
      VeOptions plain{h, false, false, 0};
      VeOptions extended{h, true, false, 0};
      VeOptimizer ve_plain(plain);
      VeOptimizer ve_ext(extended);
      auto p0 = ve_plain.Optimize(schema_.view, query, catalog_, cost_model_);
      auto p1 = ve_ext.Optimize(schema_.view, query, catalog_, cost_model_);
      ASSERT_TRUE(p0.ok() && p1.ok());
      EXPECT_LE((*p1)->est_cost, (*p0)->est_cost)
          << VeHeuristicName(h) << " group-by " << var;
    }
  }
}

TEST_F(SmallSupplyChainTest, VeRecordsEliminationOrder) {
  VeOptions options;
  VeOptimizer ve(options);
  MpfQuerySpec query{{"wid"}, {}};
  auto plan = ve.Optimize(schema_.view, query, catalog_, cost_model_);
  ASSERT_TRUE(plan.ok());
  // Every explicitly eliminated variable is a non-query variable; a single
  // GroupBy may absorb several clique-local variables at once, so the order
  // can be shorter than the four non-query variables but never empty.
  EXPECT_GE(ve.last_elimination_order().size(), 1u);
  EXPECT_LE(ve.last_elimination_order().size(), 4u);
  EXPECT_FALSE(varset::Contains(ve.last_elimination_order(), "wid"));
  for (const auto& var : ve.last_elimination_order()) {
    EXPECT_TRUE(varset::Contains({"pid", "sid", "cid", "tid"}, var)) << var;
  }
}

TEST(FdPruningTest, ProjectsNonKeyVariables) {
  // Dedicated schema where a variable is determined by every table's key:
  // t1(a, b; f) with key {a}, t2(a, c; f) with key {a}. Variable b and c are
  // in no key, so querying {a} can project them away without aggregation.
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterVariable("a", 4).ok());
  ASSERT_TRUE(catalog.RegisterVariable("b", 3).ok());
  ASSERT_TRUE(catalog.RegisterVariable("c", 3).ok());
  auto t1 = std::make_shared<Table>("t1", Schema({"a", "b"}, "f"));
  auto t2 = std::make_shared<Table>("t2", Schema({"a", "c"}, "f"));
  for (VarValue a = 0; a < 4; ++a) {
    t1->AppendRow({a, static_cast<VarValue>(a % 3)}, 1.0 + a);
    t2->AppendRow({a, static_cast<VarValue>((a + 1) % 3)}, 2.0 + a);
  }
  ASSERT_TRUE(t1->SetKeyVars({"a"}).ok());
  ASSERT_TRUE(t2->SetKeyVars({"a"}).ok());
  ASSERT_TRUE(catalog.RegisterTable(t1).ok());
  ASSERT_TRUE(catalog.RegisterTable(t2).ok());

  MpfViewDef view{"v", {"t1", "t2"}, Semiring::SumProduct()};
  MpfQuerySpec query{{"a"}, {}};
  CostModel cost_model;
  VeOptions options;
  options.extended = true;
  options.fd_pruning = true;
  VeOptimizer ve(options);
  auto plan = ve.Optimize(view, query, catalog, cost_model);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // The plan must use a Project (not GroupBy) at the root.
  EXPECT_EQ((*plan)->kind, PlanNodeKind::kProject);

  exec::Executor executor(catalog, view.semiring);
  auto result = executor.Execute(**plan, "result");
  ASSERT_TRUE(result.ok());
  auto expected = fr::EvaluateNaiveMpf({t1, t2}, {"a"}, {},
                                       Semiring::SumProduct(), "naive");
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(fr::TablesEqual(**expected, **result, 1e-9));
}

TEST(LinearityTest, PaperExampleValues) {
  // Section 7.1: for Q1, sigma_cid = 1000 and sigma_hat_cid = 5000 -> the
  // inequality does NOT hold (nonlinear plans preferred). For Q2,
  // sigma_tid = sigma_hat_tid = 500 -> it holds.
  EXPECT_FALSE(LinearPlanAdmissible(1000.0, 5000.0));
  EXPECT_TRUE(LinearPlanAdmissible(500.0, 500.0));
}

TEST(LinearityTest, CatalogDriven) {
  Catalog catalog;
  SupplyChainParams params;  // full Table 1 sizes; generation not needed --
  params.scale = 0.01;       // use a small instance, check via statistics
  auto schema = GenerateSupplyChain(params, catalog);
  ASSERT_TRUE(schema.ok());
  // At scale 0.01: sigma_cid=10, smallest relation with cid is warehouses
  // (50 rows) or ctdeals (10*5=50)... both larger than sigma, test runs.
  auto r = LinearPlanAdmissible(schema->view, "tid", catalog);
  ASSERT_TRUE(r.ok());
  auto r2 = LinearPlanAdmissible(schema->view, "nope", catalog);
  EXPECT_FALSE(r2.ok());
}

TEST(SafeRetainVarsTest, KeepsQueryAndSharedVariables) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterVariable("a", 2).ok());
  ASSERT_TRUE(catalog.RegisterVariable("b", 2).ok());
  ASSERT_TRUE(catalog.RegisterVariable("c", 2).ok());
  auto t1 = std::make_shared<Table>("t1", Schema({"a", "b"}, "f"));
  auto t2 = std::make_shared<Table>("t2", Schema({"b", "c"}, "f"));
  t1->AppendRow({0, 0}, 1.0);
  t2->AppendRow({0, 0}, 1.0);
  ASSERT_TRUE(catalog.RegisterTable(t1).ok());
  ASSERT_TRUE(catalog.RegisterTable(t2).ok());
  CostModel cost_model;
  MpfViewDef view{"v", {"t1", "t2"}, Semiring::SumProduct()};
  MpfQuerySpec query{{"c"}, {}};
  auto ctx = QueryContext::Make(view, query, catalog, cost_model);
  ASSERT_TRUE(ctx.ok());
  // Subplan covering only t1 (mask 0b01): must retain c (query var, absent
  // anyway) and b (shared with uncovered t2); may drop a.
  auto safe = SafeRetainVars(*ctx, 0b01, ctx->SetOf({"a", "b"}));
  EXPECT_EQ(ctx->Names({"a", "b"}, safe), (std::vector<std::string>{"b"}));
  // Covering both: only query vars survive.
  auto safe_all = SafeRetainVars(*ctx, 0b11, ctx->SetOf({"a", "b", "c"}));
  EXPECT_EQ(ctx->Names({"a", "b", "c"}, safe_all),
            (std::vector<std::string>{"c"}));
}

TEST(QueryContextTest, RejectsBadQueries) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterVariable("a", 2).ok());
  auto t1 = std::make_shared<Table>("t1", Schema({"a"}, "f"));
  t1->AppendRow({0}, 1.0);
  ASSERT_TRUE(catalog.RegisterTable(t1).ok());
  CostModel cost_model;
  MpfViewDef view{"v", {"t1"}, Semiring::SumProduct()};

  EXPECT_FALSE(QueryContext::Make(MpfViewDef{"e", {}, Semiring::SumProduct()},
                                  MpfQuerySpec{{"a"}, {}}, catalog, cost_model)
                   .ok());
  EXPECT_FALSE(
      QueryContext::Make(view, MpfQuerySpec{{"zz"}, {}}, catalog, cost_model)
          .ok());
  EXPECT_FALSE(QueryContext::Make(view, MpfQuerySpec{{"a"}, {{"zz", 0}}},
                                  catalog, cost_model)
                   .ok());
  EXPECT_FALSE(
      QueryContext::Make(MpfViewDef{"v", {"missing"}, Semiring::SumProduct()},
                         MpfQuerySpec{{"a"}, {}}, catalog, cost_model)
          .ok());
}

// Domain products are exact below 2^53, whatever the order; past it the
// rounding depends on the order, so the bitset product declines and callers
// multiply in list order.
TEST(QueryContextTest, ExactDomainProductStopsAtTwoToThe53) {
  Catalog catalog;
  const std::vector<std::string> vars = {"a", "b", "c", "d", "e"};
  const std::vector<int64_t> domains = {1050779, 1057903, 1049611, 1052757,
                                        1050509};
  for (size_t i = 0; i < vars.size(); ++i) {
    ASSERT_TRUE(catalog.RegisterVariable(vars[i], domains[i]).ok());
  }
  auto t = std::make_shared<Table>("t", Schema(vars, "f"));
  t->AppendRow({0, 0, 0, 0, 0}, 1.0);
  ASSERT_TRUE(catalog.RegisterTable(t).ok());
  CostModel cost_model;
  auto ctx = QueryContext::Make(MpfViewDef{"v", {"t"}, Semiring::SumProduct()},
                                MpfQuerySpec{{"a"}, {}}, catalog, cost_model);
  ASSERT_TRUE(ctx.ok()) << ctx.status();
  auto two = ctx->ExactDomainProduct(ctx->SetOf({"d", "a"}));
  ASSERT_TRUE(two.has_value());
  EXPECT_EQ(*two, 1050779.0 * 1052757.0);
  EXPECT_EQ(*two, *ctx->builder.DomainProduct({"d", "a"}));
  EXPECT_FALSE(ctx->ExactDomainProduct(ctx->SetOf(vars)).has_value());
  const std::vector<std::string> reversed(vars.rbegin(), vars.rend());
  EXPECT_NE(*ctx->builder.DomainProduct(vars),
            *ctx->builder.DomainProduct(reversed));
}

TEST(SingleRelationViewTest, Works) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterVariable("a", 2).ok());
  ASSERT_TRUE(catalog.RegisterVariable("b", 2).ok());
  auto t1 = std::make_shared<Table>("t1", Schema({"a", "b"}, "f"));
  t1->AppendRow({0, 0}, 1.0);
  t1->AppendRow({0, 1}, 2.0);
  t1->AppendRow({1, 0}, 4.0);
  ASSERT_TRUE(catalog.RegisterTable(t1).ok());
  CostModel cost_model;
  MpfViewDef view{"v", {"t1"}, Semiring::SumProduct()};
  MpfQuerySpec query{{"a"}, {}};
  CsPlusOptimizer optimizer(true);
  auto plan = optimizer.Optimize(view, query, catalog, cost_model);
  ASSERT_TRUE(plan.ok()) << plan.status();
  exec::Executor executor(catalog, view.semiring);
  auto result = executor.Execute(**plan, "r");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ((*result)->NumRows(), 2u);
  EXPECT_DOUBLE_EQ((*result)->measure(0), 3.0);
  EXPECT_DOUBLE_EQ((*result)->measure(1), 4.0);
}


// --- Plan identity ---------------------------------------------------------
//
// Golden hashes of every plan the optimizers produce over fixed-seed views:
// the EXPLAIN text, the exact bits of every node's est_card and est_cost,
// and last_variable_order(), folded per spec with FNV-1a. A data-structure
// change inside the optimizers must leave all of them byte-identical, tie
// breaks included. A spec that rejects a view (CS beyond its DP limits)
// hashes its error message instead, so the rejection is pinned too.

class Fnv1a {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ull;
    }
  }
  void Str(const std::string& s) {
    Bytes(s.data(), s.size());
    Bytes("\0", 1);
  }
  void Double(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    Bytes(&bits, sizeof(bits));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

void HashEstimates(const PlanNode& node, Fnv1a* h) {
  h->Double(node.est_card);
  h->Double(node.est_cost);
  if (node.left) HashEstimates(*node.left, h);
  if (node.right) HashEstimates(*node.right, h);
  for (const auto& child : node.children) HashEstimates(*child, h);
}

// Compares one spec's hash with its golden; a mismatch prints the line to
// record.
void ExpectGolden(const std::map<std::string, uint64_t>& golden,
                  const std::string& spec, uint64_t actual) {
  auto it = golden.find(spec);
  EXPECT_EQ(actual, it == golden.end() ? 0 : it->second)
      << "golden line: {\"" << spec << "\", 0x" << std::hex << actual
      << "ull},";
}

// Where HashPlan's plan comes from.
enum class PlanSource {
  kOptimize,  // the optimizer's own output
  // What a warm plan cache serves: the template of a sibling query (every
  // selection value shifted by one), inflated with this query's values.
  kTemplate,
};

// Plans `query` under `spec` and folds the result into `h`; returns the
// plan (nullptr when the spec rejects the view).
PlanPtr HashPlan(const std::string& spec, const MpfViewDef& view,
                 const MpfQuerySpec& query, const Catalog& catalog, Fnv1a* h,
                 PlanSource source = PlanSource::kOptimize) {
  CostModel cost_model;
  auto optimizer = MakeOptimizer(spec, /*random_seed=*/13);
  EXPECT_TRUE(optimizer.ok()) << spec;
  if (!optimizer.ok()) return nullptr;
  MpfQuerySpec planned = query;
  if (source == PlanSource::kTemplate) {
    for (auto& sel : planned.selections) ++sel.value;
  }
  auto plan = (*optimizer)->Optimize(view, planned, catalog, cost_model);
  if (!plan.ok()) {
    h->Str("error: " + plan.status().ToString());
    return nullptr;
  }
  PlanPtr result = *plan;
  std::vector<std::string> order = (*optimizer)->last_variable_order();
  if (source == PlanSource::kTemplate) {
    auto vocab = PlanVocabulary::Build(view, catalog, cost_model);
    EXPECT_TRUE(vocab.ok()) << vocab.status();
    if (!vocab.ok()) return nullptr;
    auto tmpl =
        PlanTemplate::Compact(*result, (*optimizer)->name(), order, **vocab,
                              server::CanonicalSelections(planned));
    EXPECT_TRUE(tmpl.ok()) << spec << ": " << tmpl.status();
    if (!tmpl.ok()) return nullptr;
    auto bound = tmpl->Inflate(**vocab, server::CanonicalSelections(query),
                               query.having);
    EXPECT_TRUE(bound.ok()) << spec << ": " << bound.status();
    if (!bound.ok()) return nullptr;
    result = bound->logical;
    order = bound->variable_order;
  }
  h->Str(ExplainPlan(*result));
  HashEstimates(*result, h);
  for (const auto& var : order) h->Str(var);
  h->Str("|");
  return result;
}

// Basic, restricted-answer, constrained-domain, two-variable and HAVING
// queries over the view's variables.
std::vector<MpfQuerySpec> IdentityQueries(
    const std::vector<std::string>& vars) {
  const std::string& a = vars[0];
  const std::string& b = vars[vars.size() / 2];
  const std::string& c = vars.back();
  std::vector<MpfQuerySpec> queries = {
      MpfQuerySpec{{a}, {}},
      MpfQuerySpec{{b}, {{b, 1}}},
      MpfQuerySpec{{c}, {{a, 0}}},
      MpfQuerySpec{{a, c}, {}},
  };
  MpfQuerySpec having{{b}, {{c, 1}}};
  having.having = HavingClause{CompareOp::kGt, 0.5};
  queries.push_back(having);
  return queries;
}

// rv's tables under domains that are distinct odd numbers near 2^20:
// products of three or more pass 2^53, where their rounding depends on the
// order of multiplication.
Catalog LargeDomainCatalog(const RandomView& rv) {
  Catalog copy;
  for (size_t i = 0; i < rv.vars.size(); ++i) {
    EXPECT_TRUE(
        copy.RegisterVariable(rv.vars[i], (int64_t{1} << 20) + 2 * i * i + 1)
            .ok());
  }
  for (const TablePtr& table : rv.tables) {
    EXPECT_TRUE(copy.RegisterTable(table).ok());
  }
  return copy;
}

uint64_t RandomViewsHash(const std::string& spec, PlanSource source) {
  Fnv1a h;
  struct Shape {
    uint64_t seed;
    int vars;
    int rels;
    bool acyclic;
    bool large_domains;
  };
  for (const Shape& s :
       {Shape{1, 8, 8, true, false}, Shape{2, 11, 10, true, false},
        Shape{3, 7, 9, false, false}, Shape{4, 10, 10, false, false},
        Shape{5, 6, 8, false, false}, Shape{6, 9, 8, true, true},
        Shape{7, 8, 9, false, true}}) {
    RandomView rv = MakeRandomView(s.seed, s.vars, s.rels, s.acyclic);
    const Catalog catalog =
        s.large_domains ? LargeDomainCatalog(rv) : rv.catalog;
    for (const MpfQuerySpec& query : IdentityQueries(rv.present_vars)) {
      HashPlan(spec, rv.view, query, catalog, &h, source);
    }
  }
  return h.value();
}

const std::map<std::string, uint64_t>& RandomViewsGolden() {
  static const std::map<std::string, uint64_t> expected = {
      {"cs", 0x281235d6ccce2ee8ull},
      {"cs+", 0x95de00a5b4bdfec2ull},
      {"cs+linear", 0x95de00a5b4bdfec2ull},
      {"cs+nonlinear", 0x1c0a09585acb2527ull},
      {"faq", 0x1c0a09585acb2527ull},
      {"ve(deg)", 0xd02d4f7529680233ull},
      {"ve(deg) ext.", 0x5d7afcbe9d9cf298ull},
      {"ve(deg) ext+fd", 0x5d7afcbe9d9cf298ull},
      {"ve(width)", 0x82c7db34e8295adull},
      {"ve(width) ext.", 0x9ccfea08c19b5361ull},
      {"ve(width) ext+fd", 0x9ccfea08c19b5361ull},
      {"ve(elim_cost)", 0x37895ac2d78c46d4ull},
      {"ve(elim_cost) ext.", 0x1c32fc00d71cf193ull},
      {"ve(elim_cost) ext+fd", 0x1c32fc00d71cf193ull},
      {"ve(deg&width)", 0x53561d9147b550f1ull},
      {"ve(deg&width) ext.", 0x199e15d47a00532dull},
      {"ve(deg&width) ext+fd", 0x199e15d47a00532dull},
      {"ve(deg&elim_cost)", 0xd97d2b69fe907b97ull},
      {"ve(deg&elim_cost) ext.", 0xe075d15941e7c47eull},
      {"ve(deg&elim_cost) ext+fd", 0xe075d15941e7c47eull},
      {"ve(random)", 0xdac3bf833c73ee68ull},
      {"ve(random) ext.", 0xb7c0e09bb3de56d3ull},
      {"ve(random) ext+fd", 0xb7c0e09bb3de56d3ull},
      {"ve(min_fill)", 0x8280f7ca7d4a1b54ull},
      {"ve(min_fill) ext.", 0x920f76c486bc3ffaull},
      {"ve(min_fill) ext+fd", 0x920f76c486bc3ffaull},
  };
  return expected;
}

TEST(PlanIdentityTest, RandomViewsEverySpec) {
  for (const std::string& spec : AllSpecs()) {
    ExpectGolden(RandomViewsGolden(), spec,
                 RandomViewsHash(spec, PlanSource::kOptimize));
  }
}

// The same goldens from templates: a warm plan cache serves every spec's
// plans bit for bit.
TEST(PlanIdentityTest, RandomViewsEverySpecThroughTemplates) {
  for (const std::string& spec : AllSpecs()) {
    ExpectGolden(RandomViewsGolden(), spec,
                 RandomViewsHash(spec, PlanSource::kTemplate));
  }
}

// The bn_inference net: 40 nodes, at most 2 parents, domain 3, seed 33,
// asked P(x_q | x_e = v) as the end-to-end workload asks it.
void ExpectBayesNet40Goldens(PlanSource source) {
  Catalog catalog;
  Rng rng(33);
  auto net = bn::RandomBayesNet(40, 2, 3, rng);
  ASSERT_TRUE(net.ok()) << net.status();
  auto view = net->ToMpfView(catalog);
  ASSERT_TRUE(view.ok()) << view.status();
  struct Ask {
    int q;
    int e;
    VarValue v;
  };
  static const std::map<std::string, uint64_t> expected = {
      {"ve(deg)", 0x68240af5bde66c90ull},
      {"ve(deg) ext.", 0x1c11d16233e5d1f9ull},
      {"ve(deg) ext+fd", 0x1c11d16233e5d1f9ull},
      {"ve(width)", 0x2bd337c58673a1f0ull},
      {"ve(width) ext.", 0x2bd337c58673a1f0ull},
      {"ve(width) ext+fd", 0x2bd337c58673a1f0ull},
      {"ve(elim_cost)", 0xca960c53f3ec638ull},
      {"ve(elim_cost) ext.", 0x2c9358a8da0eea84ull},
      {"ve(elim_cost) ext+fd", 0x2c9358a8da0eea84ull},
      {"ve(deg&width)", 0x62106bfde5c174e4ull},
      {"ve(deg&width) ext.", 0x7abb3f94d638a6abull},
      {"ve(deg&width) ext+fd", 0x7abb3f94d638a6abull},
      {"ve(deg&elim_cost)", 0x4afd59a49d2b21f9ull},
      {"ve(deg&elim_cost) ext.", 0x5a42d613cc94ff67ull},
      {"ve(deg&elim_cost) ext+fd", 0x5a42d613cc94ff67ull},
      {"ve(random)", 0x40e018f6375da755ull},
      {"ve(random) ext.", 0x8de9dc09f818519cull},
      {"ve(random) ext+fd", 0x8de9dc09f818519cull},
      {"ve(min_fill)", 0x23c3b29d04beebbeull},
      {"ve(min_fill) ext.", 0x706a728cb1a2fc3aull},
      {"ve(min_fill) ext+fd", 0x706a728cb1a2fc3aull},
  };
  for (const std::string& spec : VeSpecs()) {
    Fnv1a h;
    for (const Ask& ask : {Ask{0, 39, 1}, Ask{17, 3, 0}, Ask{25, 26, 2},
                           Ask{39, 0, 1}}) {
      MpfQuerySpec query{{"x" + std::to_string(ask.q)},
                         {{"x" + std::to_string(ask.e), ask.v}}};
      HashPlan(spec, *view, query, catalog, &h, source);
    }
    ExpectGolden(expected, spec, h.value());
  }
}

TEST(PlanIdentityTest, BayesNet40VeSpecs) {
  ExpectBayesNet40Goldens(PlanSource::kOptimize);
}

TEST(PlanIdentityTest, BayesNet40VeSpecsThroughTemplates) {
  ExpectBayesNet40Goldens(PlanSource::kTemplate);
}

// A ring of 33 relations over 66 variables — more than one 64-bit word of
// variables — where relation i spans (w{2i}, w{2i+1}, w{2i+2 mod 66}). Each
// relation's rows are a matching (a, a+i mod 3, a), so the full join has
// three rows and the naive oracle stays cheap; measures are powers of two,
// so every fold order gives the same bits.
void ExpectWideRingGoldensAndAnswers(PlanSource source) {
  constexpr int kRels = 33;
  constexpr int kVars = 2 * kRels;
  Catalog catalog;
  MpfViewDef view{"ring", {}, Semiring::SumProduct()};
  std::vector<std::string> vars;
  for (int i = 0; i < kVars; ++i) {
    vars.push_back("w" + std::to_string(i));
    ASSERT_TRUE(catalog.RegisterVariable(vars.back(), 3).ok());
  }
  std::vector<TablePtr> tables;
  Rng rng(77);
  for (int i = 0; i < kRels; ++i) {
    auto table = std::make_shared<Table>(
        "ring" + std::to_string(i),
        Schema({vars[2 * i], vars[2 * i + 1], vars[(2 * i + 2) % kVars]}, "f"));
    for (VarValue a = 0; a < 3; ++a) {
      table->AppendRow(
          {a, (a + i) % 3, a},
          std::ldexp(1.0, static_cast<int>(rng.UniformInt(-2, 2))));
    }
    ASSERT_TRUE(catalog.RegisterTable(table).ok());
    tables.push_back(table);
    view.relations.push_back(table->name());
  }
  const std::map<std::string, uint64_t> expected = {
      {"cs", 0xb5e396e1a5306605ull},
      {"cs+", 0xb5e396e1a5306605ull},
      {"cs+linear", 0xb5e396e1a5306605ull},
      {"cs+nonlinear", 0x52cce6c5ee1685fdull},
      {"faq", 0xe1a34789ac7c4138ull},
      {"ve(deg)", 0x2ebca474a41f8dbull},
      {"ve(deg) ext.", 0xd0a78d693db73025ull},
      {"ve(deg) ext+fd", 0xd0a78d693db73025ull},
      {"ve(width)", 0xb66f60a251cd7e35ull},
      {"ve(width) ext.", 0x237e50459511e2bdull},
      {"ve(width) ext+fd", 0x237e50459511e2bdull},
      {"ve(elim_cost)", 0x2234e11ed8ad1774ull},
      {"ve(elim_cost) ext.", 0x558b04f3d06d139ull},
      {"ve(elim_cost) ext+fd", 0x558b04f3d06d139ull},
      {"ve(deg&width)", 0xb66f60a251cd7e35ull},
      {"ve(deg&width) ext.", 0x2bcffa127ab5dc9dull},
      {"ve(deg&width) ext+fd", 0x2bcffa127ab5dc9dull},
      {"ve(deg&elim_cost)", 0x27c131757b98e8cdull},
      {"ve(deg&elim_cost) ext.", 0xfc616d03e52b0f4eull},
      {"ve(deg&elim_cost) ext+fd", 0xfc616d03e52b0f4eull},
      {"ve(random)", 0x2de46e407992d3bbull},
      {"ve(random) ext.", 0x660b293f2ac5bba7ull},
      {"ve(random) ext+fd", 0x660b293f2ac5bba7ull},
      {"ve(min_fill)", 0xddaee283d2a97ce7ull},
      {"ve(min_fill) ext.", 0x2bcffa127ab5dc9dull},
      {"ve(min_fill) ext+fd", 0x2bcffa127ab5dc9dull},
  };
  for (const std::string& spec : AllSpecs()) {
    Fnv1a h;
    for (const MpfQuerySpec& query : IdentityQueries(vars)) {
      PlanPtr plan = HashPlan(spec, view, query, catalog, &h, source);
      if (plan == nullptr) continue;
      std::vector<fr::Selection> selections;
      for (const auto& sel : query.selections) {
        selections.push_back({sel.var, sel.value});
      }
      auto naive = fr::EvaluateNaiveMpf(tables, query.group_vars, selections,
                                        view.semiring, "naive");
      ASSERT_TRUE(naive.ok()) << naive.status();
      TablePtr want = *naive;
      if (query.having.has_value()) {
        auto filtered = fr::FilterMeasure(*want, *query.having, "naive");
        ASSERT_TRUE(filtered.ok()) << filtered.status();
        want = *filtered;
      }
      exec::Executor executor(catalog, view.semiring);
      auto got = executor.Execute(*plan, "result");
      ASSERT_TRUE(got.ok()) << spec << ": " << got.status();
      // A plan may emit the group columns in another order; regrouping onto
      // the query's order aligns columns and rows without changing a bit.
      auto aligned =
          fr::Marginalize(**got, query.group_vars, view.semiring, "result");
      ASSERT_TRUE(aligned.ok()) << aligned.status();
      EXPECT_TRUE(fr::TablesEqual(*want, **aligned, 0.0))
          << spec << " on " << query.ToString(view);
    }
    ExpectGolden(expected, spec, h.value());
  }
}

TEST(PlanIdentityTest, WideRingViewEverySpecMatchesNaive) {
  ExpectWideRingGoldensAndAnswers(PlanSource::kOptimize);
}

TEST(PlanIdentityTest, WideRingViewEverySpecThroughTemplates) {
  ExpectWideRingGoldensAndAnswers(PlanSource::kTemplate);
}

}  // namespace
}  // namespace mpfdb::opt
