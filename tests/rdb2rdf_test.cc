#include <gtest/gtest.h>

#include <set>

#include "rdb2rdf/rdb2rdf.h"

namespace her {
namespace {

Database PaperTables() {
  Database db;
  EXPECT_TRUE(db.AddRelation(RelationSchema("brand",
                                            {{"name", false, ""},
                                             {"country", false, ""},
                                             {"manufacturer", false, ""},
                                             {"made_in", false, ""}}))
                  .ok());
  EXPECT_TRUE(db.AddRelation(RelationSchema("item",
                                            {{"item", false, ""},
                                             {"material", false, ""},
                                             {"color", false, ""},
                                             {"type", false, ""},
                                             {"brand", true, "brand"},
                                             {"qty", false, ""}}))
                  .ok());
  EXPECT_TRUE(db.Insert("brand", {"b1",
                                  {"Addidas Originals", "Germany",
                                   "Addidas AG", "Can Duoc, VN"}})
                  .ok());
  EXPECT_TRUE(db.Insert("item", {"t1",
                                 {"Dame Basketball Shoes D7", "phylon foam",
                                  "white", "Dame 7", "b1", "500"}})
                  .ok());
  return db;
}

TEST(Rdb2RdfTest, TupleVerticesLabeledWithRelationName) {
  const Database db = PaperTables();
  const auto cg = Rdb2Rdf(db);
  ASSERT_TRUE(cg.ok());
  const uint32_t brand_idx = db.FindRelation("brand").value();
  const uint32_t item_idx = db.FindRelation("item").value();
  const VertexId ub = cg->VertexOf(TupleRef{brand_idx, 0});
  const VertexId ut = cg->VertexOf(TupleRef{item_idx, 0});
  EXPECT_EQ(cg->graph().label(ub), "brand");
  EXPECT_EQ(cg->graph().label(ut), "item");
}

TEST(Rdb2RdfTest, MappingIsInvertibleOnTupleVertices) {
  const Database db = PaperTables();
  const auto cg = Rdb2Rdf(db);
  ASSERT_TRUE(cg.ok());
  for (const VertexId u : cg->TupleVertices()) {
    const auto t = cg->TupleOf(u);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(cg->VertexOf(*t), u);
  }
}

TEST(Rdb2RdfTest, AttributeVerticesCarryValues) {
  const Database db = PaperTables();
  const auto cg = Rdb2Rdf(db);
  ASSERT_TRUE(cg.ok());
  const uint32_t item_idx = db.FindRelation("item").value();
  const VertexId ut = cg->VertexOf(TupleRef{item_idx, 0});
  const Graph& g = cg->graph();
  std::set<std::string> attr_labels;
  std::set<std::string> edge_labels;
  for (const Edge& e : g.OutEdges(ut)) {
    edge_labels.insert(g.EdgeLabelName(e.label));
    attr_labels.emplace(g.label(e.dst));
  }
  EXPECT_EQ(edge_labels, (std::set<std::string>{"item", "material", "color",
                                                "type", "brand", "qty"}));
  EXPECT_TRUE(attr_labels.count("phylon foam"));
  EXPECT_TRUE(attr_labels.count("white"));
  EXPECT_TRUE(attr_labels.count("500"));
  // The FK edge points at the brand tuple vertex, labeled "brand".
  EXPECT_TRUE(attr_labels.count("brand"));
}

TEST(Rdb2RdfTest, ForeignKeyEdgeTargetsTupleVertex) {
  const Database db = PaperTables();
  const auto cg = Rdb2Rdf(db);
  ASSERT_TRUE(cg.ok());
  const uint32_t item_idx = db.FindRelation("item").value();
  const uint32_t brand_idx = db.FindRelation("brand").value();
  const VertexId ut = cg->VertexOf(TupleRef{item_idx, 0});
  const VertexId ub = cg->VertexOf(TupleRef{brand_idx, 0});
  const Graph& g = cg->graph();
  bool found_fk = false;
  for (const Edge& e : g.OutEdges(ut)) {
    if (e.dst == ub) {
      found_fk = true;
      EXPECT_EQ(g.EdgeLabelName(e.label), "brand");
      EXPECT_TRUE(cg->IsForeignKeyLabel(e.label));
    } else {
      EXPECT_FALSE(cg->IsForeignKeyLabel(e.label));
    }
  }
  EXPECT_TRUE(found_fk);
}

TEST(Rdb2RdfTest, NullAttributesProduceNothing) {
  Database db;
  ASSERT_TRUE(db.AddRelation(RelationSchema("r", {{"a", false, ""},
                                                  {"b", false, ""}}))
                  .ok());
  ASSERT_TRUE(db.Insert("r", {"k", {"v", std::string(kNullValue)}}).ok());
  const auto cg = Rdb2Rdf(db);
  ASSERT_TRUE(cg.ok());
  const VertexId u = cg->VertexOf(TupleRef{0, 0});
  EXPECT_EQ(cg->graph().OutDegree(u), 1u);  // only attribute "a"
}

TEST(Rdb2RdfTest, VertexAndEdgeCounts) {
  const Database db = PaperTables();
  const auto cg = Rdb2Rdf(db);
  ASSERT_TRUE(cg.ok());
  // 2 tuple vertices + 4 brand attrs + 5 item attrs (brand FK adds no
  // vertex) = 11 vertices; 4 + 6 = 10 edges.
  EXPECT_EQ(cg->graph().num_vertices(), 11u);
  EXPECT_EQ(cg->graph().num_edges(), 10u);
}

TEST(Rdb2RdfTest, DanglingFkFails) {
  Database db;
  ASSERT_TRUE(db.AddRelation(RelationSchema("a", {{"x", false, ""}})).ok());
  ASSERT_TRUE(
      db.AddRelation(RelationSchema("b", {{"ref", true, "a"}})).ok());
  ASSERT_TRUE(db.Insert("b", {"k", {"nothing"}}).ok());
  const auto cg = Rdb2Rdf(db);
  EXPECT_FALSE(cg.ok());
  EXPECT_EQ(cg.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Rdb2RdfTest, AttributeVertexIsNotATuple) {
  const Database db = PaperTables();
  const auto cg = Rdb2Rdf(db);
  ASSERT_TRUE(cg.ok());
  const VertexId ut = cg->VertexOf(TupleRef{db.FindRelation("item").value(), 0});
  for (const Edge& e : cg->graph().OutEdges(ut)) {
    if (cg->graph().EdgeLabelName(e.label) == "color") {
      EXPECT_FALSE(cg->TupleOf(e.dst).has_value());
    }
  }
}

}  // namespace
}  // namespace her
