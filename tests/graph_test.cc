#include <gtest/gtest.h>

#include "graph/junction_tree.h"
#include "graph/variable_graph.h"
#include "storage/schema.h"

namespace mpfdb::graph {
namespace {

// The paper's supply-chain schema (Figure 1): contracts(pid,sid),
// warehouses(wid,cid), transporters(tid), location(pid,wid), ctdeals(cid,tid).
std::vector<std::vector<std::string>> SupplyChainVars() {
  return {{"pid", "sid"},
          {"wid", "cid"},
          {"tid"},
          {"pid", "wid"},
          {"cid", "tid"}};
}

// The cyclic extension with stdeals(sid, tid) (appendix, Figure 12).
std::vector<std::vector<std::string>> CyclicSupplyChainVars() {
  auto vars = SupplyChainVars();
  vars.push_back({"sid", "tid"});
  return vars;
}

TEST(VariableGraphTest, FromSchemaBuildsCooccurrenceEdges) {
  VariableGraph g = VariableGraph::FromSchema(SupplyChainVars());
  EXPECT_EQ(g.NumVertices(), 5u);
  EXPECT_TRUE(g.HasEdge("pid", "sid"));
  EXPECT_TRUE(g.HasEdge("pid", "wid"));
  EXPECT_TRUE(g.HasEdge("wid", "cid"));
  EXPECT_TRUE(g.HasEdge("cid", "tid"));
  EXPECT_FALSE(g.HasEdge("sid", "tid"));
  EXPECT_FALSE(g.HasEdge("pid", "cid"));
  EXPECT_EQ(g.NumEdges(), 4u);
}

TEST(VariableGraphTest, AcyclicSupplyChainIsChordal) {
  // Figure 13: the variable graph of the original schema is chordal.
  VariableGraph g = VariableGraph::FromSchema(SupplyChainVars());
  EXPECT_TRUE(g.IsChordal());
}

TEST(VariableGraphTest, CyclicSupplyChainIsNotChordal) {
  // Adding stdeals creates the chordless 5-cycle pid-sid-tid-cid-wid-pid
  // (the paper: "a cycle of length 5 that has no chord").
  VariableGraph g = VariableGraph::FromSchema(CyclicSupplyChainVars());
  EXPECT_FALSE(g.IsChordal());
}

TEST(VariableGraphTest, TriangulationMakesChordal) {
  VariableGraph g = VariableGraph::FromSchema(CyclicSupplyChainVars());
  // The paper's Figure 14 uses the vertex order tid, sid (then the rest).
  std::vector<std::pair<std::string, std::string>> fill;
  auto chordal = g.Triangulate({"tid", "sid", "pid", "wid", "cid"}, &fill);
  ASSERT_TRUE(chordal.ok()) << chordal.status();
  EXPECT_TRUE(chordal->IsChordal());
  EXPECT_FALSE(fill.empty());
  // Eliminating tid first connects its neighbors sid and cid.
  EXPECT_TRUE(chordal->HasEdge("sid", "cid"));
}

TEST(VariableGraphTest, TriangulateRejectsBadOrder) {
  VariableGraph g = VariableGraph::FromSchema(SupplyChainVars());
  EXPECT_FALSE(g.Triangulate({"pid"}).ok());
  EXPECT_FALSE(
      g.Triangulate({"pid", "sid", "wid", "cid", "bogus"}).ok());
}

TEST(VariableGraphTest, MinFillOnChordalGraphAddsNothing) {
  VariableGraph g = VariableGraph::FromSchema(SupplyChainVars());
  auto result = g.TriangulateMinFill();
  EXPECT_TRUE(result.fill_edges.empty());
  EXPECT_TRUE(result.chordal.IsChordal());
  EXPECT_EQ(result.order.size(), 5u);
}

TEST(VariableGraphTest, CyclesDetected) {
  // A 4-cycle without chord.
  VariableGraph g;
  g.AddEdge("a", "b");
  g.AddEdge("b", "c");
  g.AddEdge("c", "d");
  g.AddEdge("d", "a");
  EXPECT_FALSE(g.IsChordal());
  g.AddEdge("a", "c");
  EXPECT_TRUE(g.IsChordal());
}

TEST(VariableGraphTest, MaximalCliquesOfChordalGraph) {
  VariableGraph g = VariableGraph::FromSchema(SupplyChainVars());
  auto cliques = g.MaximalCliques();
  ASSERT_TRUE(cliques.ok()) << cliques.status();
  // The chain's maximal cliques are the relation schemas themselves (minus
  // the contained {tid}).
  EXPECT_EQ(cliques->size(), 4u);
}

TEST(VariableGraphTest, MaximalCliquesRejectsNonChordal) {
  VariableGraph g = VariableGraph::FromSchema(CyclicSupplyChainVars());
  EXPECT_FALSE(g.MaximalCliques().ok());
}

TEST(AcyclicSchemaTest, PaperExamples) {
  EXPECT_TRUE(IsAcyclicSchema(SupplyChainVars()));
  EXPECT_FALSE(IsAcyclicSchema(CyclicSupplyChainVars()));
}

TEST(AcyclicSchemaTest, EdgeCases) {
  EXPECT_TRUE(IsAcyclicSchema({}));
  EXPECT_TRUE(IsAcyclicSchema({{"a"}}));
  EXPECT_TRUE(IsAcyclicSchema({{"a", "b"}, {"b", "c"}}));
  // Classic triangle of pairwise-sharing relations is cyclic.
  EXPECT_FALSE(IsAcyclicSchema({{"a", "b"}, {"b", "c"}, {"c", "a"}}));
  // But adding the covering relation makes it acyclic.
  EXPECT_TRUE(
      IsAcyclicSchema({{"a", "b"}, {"b", "c"}, {"c", "a"}, {"a", "b", "c"}}));
}

TEST(JoinTreeTest, MaxSpanningTreeSatisfiesRipOnAcyclicSchema) {
  JoinTree tree = MaxSpanningJoinTree(SupplyChainVars());
  EXPECT_EQ(tree.edges.size(), 4u);
  EXPECT_TRUE(SatisfiesRunningIntersection(tree));
}

TEST(JoinTreeTest, RipViolationDetected) {
  // Path a-b, b-c, with (a,c) shared var x placed badly: nodes {x,a},{b},{x,c}
  // chained through {b} violates RIP.
  JoinTree tree;
  tree.node_vars = {{"x", "a"}, {"b", "a", "c"}, {"x", "c"}};
  tree.edges = {{0, 1}, {1, 2}};
  EXPECT_FALSE(SatisfiesRunningIntersection(tree));
}

TEST(JunctionTreeTest, AcyclicSchemaNeedsNoFill) {
  auto jt = BuildJunctionTree(SupplyChainVars());
  ASSERT_TRUE(jt.ok()) << jt.status();
  EXPECT_TRUE(jt->fill_edges.empty());
  EXPECT_TRUE(SatisfiesRunningIntersection(jt->tree));
  // Every relation is assigned to a clique covering it.
  auto vars = SupplyChainVars();
  for (size_t r = 0; r < vars.size(); ++r) {
    EXPECT_TRUE(mpfdb::varset::IsSubset(
        vars[r], jt->tree.node_vars[jt->assignment[r]]));
  }
}

TEST(JunctionTreeTest, CyclicSchemaGetsTriangulated) {
  auto jt = BuildJunctionTree(CyclicSupplyChainVars());
  ASSERT_TRUE(jt.ok()) << jt.status();
  EXPECT_FALSE(jt->fill_edges.empty());
  EXPECT_TRUE(SatisfiesRunningIntersection(jt->tree));
  auto vars = CyclicSupplyChainVars();
  for (size_t r = 0; r < vars.size(); ++r) {
    EXPECT_TRUE(mpfdb::varset::IsSubset(
        vars[r], jt->tree.node_vars[jt->assignment[r]]));
  }
}

TEST(JunctionTreeTest, PaperEliminationOrder) {
  // Figure 14's order tid, sid yields the junction tree of Figure 15 whose
  // cliques include {sid, cid, tid} (from eliminating tid) and {pid, sid,
  // wid, cid} territory from eliminating sid.
  auto jt = BuildJunctionTree(CyclicSupplyChainVars(),
                              {"tid", "sid", "pid", "wid", "cid"});
  ASSERT_TRUE(jt.ok()) << jt.status();
  bool found_sct = false;
  for (const auto& clique : jt->tree.node_vars) {
    if (mpfdb::varset::SetEquals(clique, {"sid", "cid", "tid"})) {
      found_sct = true;
    }
  }
  EXPECT_TRUE(found_sct);
}

TEST(JunctionTreeTest, EmptySchemaRejected) {
  EXPECT_FALSE(BuildJunctionTree({}).ok());
}

}  // namespace
}  // namespace mpfdb::graph
