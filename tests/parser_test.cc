#include <gtest/gtest.h>

#include "fr/algebra.h"
#include "parser/sql.h"
#include "parser/tokenizer.h"

namespace mpfdb::parser {
namespace {

TEST(TokenizerTest, BasicTokens) {
  auto tokens = Tokenize("select x, SUM(f) from v where y=3 group by x;");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens->front().text, "select");
  EXPECT_EQ(tokens->back().kind, TokenKind::kEnd);
}

TEST(TokenizerTest, Numbers) {
  auto tokens = Tokenize("1 -2 3.5 -4.25 1e-3");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "1");
  EXPECT_EQ((*tokens)[1].text, "-2");
  EXPECT_EQ((*tokens)[2].text, "3.5");
  EXPECT_EQ((*tokens)[3].text, "-4.25");
  EXPECT_EQ((*tokens)[4].text, "1e-3");
}

TEST(TokenizerTest, RejectsUnknownCharacters) {
  EXPECT_FALSE(Tokenize("select @").ok());
}

TEST(TokenCursorTest, KeywordMatchingIsCaseInsensitive) {
  auto tokens = Tokenize("SELECT foo");
  ASSERT_TRUE(tokens.ok());
  TokenCursor cursor(*tokens);
  EXPECT_TRUE(cursor.TryKeyword("select"));
  EXPECT_FALSE(cursor.TryKeyword("from"));
  EXPECT_TRUE(cursor.ExpectIdentifier().ok());
  EXPECT_TRUE(cursor.AtEnd());
}

class SqlSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_ = std::make_unique<SqlSession>(db_);
    Run("create variable x domain 3");
    Run("create variable y domain 3");
    Run("create variable z domain 2");
    Run("create table t1 (x, y; f) key (x, y)");
    Run("create table t2 (y, z; f)");
    Run("insert into t1 values (0,0,1.0),(0,1,2.0),(1,0,3.0),(1,1,4.0),"
        "(2,0,5.0),(2,2,6.0)");
    Run("insert into t2 values (0,0,1.0),(0,1,2.0),(1,0,3.0),(1,1,0.5),"
        "(2,1,2.5)");
    Run("create mpfview v as select * from t1, t2");
  }

  SqlResult Run(const std::string& statement) {
    auto result = session_->Execute(statement);
    EXPECT_TRUE(result.ok()) << statement << " -> " << result.status();
    return result.ok() ? *result : SqlResult{};
  }

  Database db_;
  std::unique_ptr<SqlSession> session_;
};

TEST_F(SqlSessionTest, DdlAndDmlWork) {
  EXPECT_TRUE(db_.catalog().HasTable("t1"));
  EXPECT_TRUE(db_.catalog().HasTable("t2"));
  EXPECT_EQ(*db_.catalog().Cardinality("t1"), 6);
  EXPECT_EQ((*db_.catalog().GetTable("t1"))->key_vars(),
            (std::vector<std::string>{"x", "y"}));
  EXPECT_TRUE(db_.GetView("v").ok());
}

TEST_F(SqlSessionTest, BasicQuery) {
  SqlResult result = Run("select x, SUM(f) from v group by x");
  ASSERT_NE(result.table, nullptr);
  // x=0: rows (0,0)*t2(0,*) + (0,1)*t2(1,*): 1*(1+2) + 2*(3+0.5) = 10.
  EXPECT_EQ(result.table->Row(0).var(0), 0);
  EXPECT_DOUBLE_EQ(result.table->Row(0).measure, 10.0);
}

TEST_F(SqlSessionTest, WhereClauseAndOptimizerChoice) {
  SqlResult result = Run(
      "select z, SUM(f) from v where x=1 group by z using optimizer ve(deg) "
      "ext.");
  ASSERT_NE(result.table, nullptr);
  // x=1: t1 rows (1,0;3),(1,1;4); z=0: 3*1 + 4*3 = 15; z=1: 3*2 + 4*0.5 = 8.
  EXPECT_DOUBLE_EQ(result.table->Row(0).measure, 15.0);
  EXPECT_DOUBLE_EQ(result.table->Row(1).measure, 8.0);
}

TEST_F(SqlSessionTest, ExplainProducesPlanText) {
  SqlResult result = Run("explain select x, SUM(f) from v group by x");
  EXPECT_EQ(result.table, nullptr);
  EXPECT_NE(result.message.find("GroupBy"), std::string::npos);
}

TEST_F(SqlSessionTest, HavingThresholdPrintsRoundTrip) {
  auto view = db_.GetView("v");
  ASSERT_TRUE(view.ok());
  MpfQuerySpec a{{"x"}, {}};
  a.having = HavingClause{CompareOp::kGt, 0.31415926};
  MpfQuerySpec b = a;
  b.having->threshold = 0.31415929;
  const std::string sql_a = a.ToString(**view);
  const std::string sql_b = b.ToString(**view);
  EXPECT_NE(sql_a, sql_b);
  EXPECT_NE(sql_a.find("having f > 0.31415926"), std::string::npos) << sql_a;
  // A short threshold prints as it always did.
  MpfQuerySpec half = a;
  half.having->threshold = 0.5;
  EXPECT_NE(half.ToString(**view).find("having f > 0.5"), std::string::npos);
  // The printed SQL parses back to the same spec: EXPLAIN echoes the parsed
  // query, and the answers agree bit for bit.
  for (const MpfQuerySpec& spec : {a, b}) {
    const std::string sql = spec.ToString(**view);
    SqlResult explained = Run("explain " + sql);
    EXPECT_NE(explained.message.find("-- query: " + sql + "\n"),
              std::string::npos)
        << explained.message;
    SqlResult parsed = Run(sql);
    auto direct = db_.Query("v", spec);
    ASSERT_TRUE(direct.ok()) << direct.status();
    ASSERT_NE(parsed.table, nullptr);
    EXPECT_TRUE(fr::TablesEqual(*parsed.table, *direct->table, 0.0));
  }
}

TEST_F(SqlSessionTest, CreateTableAsSelect) {
  // The result of an MPF query is a functional relation (Section 2); it can
  // be materialized and joined into further views.
  Run("create table xz as select x, z, SUM(f) from v group by x, z");
  ASSERT_TRUE(db_.catalog().HasTable("xz"));
  TablePtr xz = *db_.catalog().GetTable("xz");
  EXPECT_TRUE(varset::SetEquals(xz->schema().variables(), {"x", "z"}));
  // The query variables are a key of the materialized result.
  EXPECT_TRUE(varset::SetEquals(xz->key_vars(), {"x", "z"}));

  // Use it as a subquery relation in a further MPF view.
  Run("create mpfview v2 as select * from xz, t1");
  SqlResult nested = Run("select z, SUM(f) from v2 group by z");
  ASSERT_NE(nested.table, nullptr);

  EXPECT_FALSE(
      session_->Execute("create table dup as select x, SUM(f) from nosuch "
                        "group by x")
          .ok());
}

TEST_F(SqlSessionTest, OrderByAndLimit) {
  SqlResult top = Run(
      "select x, SUM(f) from v group by x order by f desc limit 2");
  ASSERT_NE(top.table, nullptr);
  ASSERT_EQ(top.table->NumRows(), 2u);
  EXPECT_GE(top.table->measure(0), top.table->measure(1));

  SqlResult bottom =
      Run("select x, SUM(f) from v group by x order by f asc limit 1");
  ASSERT_EQ(bottom.table->NumRows(), 1u);
  // The ascending head is the minimum of the full result.
  SqlResult all = Run("select x, SUM(f) from v group by x");
  double min_measure = all.table->measure(0);
  for (size_t i = 1; i < all.table->NumRows(); ++i) {
    min_measure = std::min(min_measure, all.table->measure(i));
  }
  EXPECT_DOUBLE_EQ(bottom.table->measure(0), min_measure);

  SqlResult limited = Run("select x, SUM(f) from v group by x limit 0");
  EXPECT_EQ(limited.table->NumRows(), 0u);
  EXPECT_FALSE(
      session_->Execute("select x, SUM(f) from v group by x limit -3").ok());
}

TEST_F(SqlSessionTest, ExplainAnalyzeShowsActualRows) {
  SqlResult result =
      Run("explain analyze select x, SUM(f) from v group by x");
  EXPECT_EQ(result.table, nullptr);
  EXPECT_NE(result.message.find("actual="), std::string::npos);
  EXPECT_NE(result.message.find("est="), std::string::npos);
}

TEST_F(SqlSessionTest, CacheStatements) {
  Run("build cache on v");
  SqlResult result = Run("select y, SUM(f) from v group by y");
  SqlResult cached = Run("select y, SUM(f) from cache v group by y");
  ASSERT_NE(result.table, nullptr);
  ASSERT_NE(cached.table, nullptr);
  ASSERT_EQ(result.table->NumRows(), cached.table->NumRows());
  for (size_t i = 0; i < result.table->NumRows(); ++i) {
    EXPECT_NEAR(result.table->measure(i), cached.table->measure(i), 1e-9);
  }
}

TEST_F(SqlSessionTest, MinSumView) {
  Run("create mpfview vmin as select * from t1, t2 using min_sum");
  SqlResult result = Run("select x, MIN(f) from vmin group by x");
  ASSERT_NE(result.table, nullptr);
  // Min over x=0 chains: min over y,z of t1+t2: y=0: 1+min(1,2)=2;
  // y=1: 2+min(3,0.5)=2.5 -> overall 2.
  EXPECT_DOUBLE_EQ(result.table->Row(0).measure, 2.0);
}

TEST_F(SqlSessionTest, ErrorsAreReported) {
  EXPECT_FALSE(session_->Execute("drop table t1").ok());
  EXPECT_FALSE(session_->Execute("create gizmo g").ok());
  EXPECT_FALSE(session_->Execute("select x, AVG(f) from v group by x").ok());
  EXPECT_FALSE(session_->Execute("select x, MIN(f) from v group by x").ok());
  EXPECT_FALSE(
      session_->Execute("select x, SUM(f) from v group by x trailing").ok());
  EXPECT_FALSE(
      session_->Execute("select y, SUM(f) from v group by x").ok());
  EXPECT_FALSE(session_->Execute("insert into t1 values (9,0,1.0)").ok());
  EXPECT_FALSE(session_->Execute("insert into missing values (0,1.0)").ok());
  EXPECT_FALSE(session_->Execute("create variable x domain 99").ok());
}

TEST_F(SqlSessionTest, DropAndShowStatements) {
  SqlResult tables = Run("show tables");
  EXPECT_NE(tables.message.find("t1"), std::string::npos);
  EXPECT_NE(tables.message.find("t2"), std::string::npos);
  SqlResult views = Run("show views");
  EXPECT_NE(views.message.find("v"), std::string::npos);
  EXPECT_NE(views.message.find("sum_product"), std::string::npos);

  // Cannot drop a table a view references.
  EXPECT_FALSE(session_->Execute("drop table t1").ok());
  Run("drop mpfview v");
  Run("drop table t1");
  EXPECT_FALSE(db_.catalog().HasTable("t1"));
  EXPECT_FALSE(session_->Execute("drop table t1").ok());
  EXPECT_FALSE(session_->Execute("drop mpfview v").ok());
  EXPECT_FALSE(session_->Execute("drop gizmo g").ok());
  EXPECT_FALSE(session_->Execute("show gizmos").ok());
}

TEST_F(SqlSessionTest, TableWithoutSemicolonSchema) {
  Run("create variable w domain 2");
  // Last column becomes the measure when ';' is omitted.
  Run("create table t3 (w, g)");
  TablePtr t3 = *db_.catalog().GetTable("t3");
  EXPECT_EQ(t3->schema().variables(), (std::vector<std::string>{"w"}));
  EXPECT_EQ(t3->schema().measure_name(), "g");
}

}  // namespace
}  // namespace mpfdb::parser
