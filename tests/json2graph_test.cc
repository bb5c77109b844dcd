#include <gtest/gtest.h>

#include "rdb2rdf/json2graph.h"

namespace her {
namespace {

TEST(JsonParserTest, ParsesScalars) {
  EXPECT_EQ(ParseJson("null")->type(), JsonValue::Type::kNull);
  EXPECT_TRUE(ParseJson("true")->bool_value());
  EXPECT_FALSE(ParseJson("false")->bool_value());
  EXPECT_DOUBLE_EQ(ParseJson("3.5")->number_value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseJson("-12")->number_value(), -12.0);
  EXPECT_DOUBLE_EQ(ParseJson("1e3")->number_value(), 1000.0);
  EXPECT_EQ(ParseJson(R"("hi")")->string_value(), "hi");
}

TEST(JsonParserTest, ParsesEscapes) {
  EXPECT_EQ(ParseJson(R"("a\nb\t\"c\"\\")")->string_value(), "a\nb\t\"c\"\\");
  EXPECT_EQ(ParseJson(R"("A")")->string_value(), "A");
  EXPECT_EQ(ParseJson(R"("é")")->string_value(), "\xc3\xa9");  // é
}

TEST(JsonParserTest, ParsesNestedStructures) {
  const auto v = ParseJson(R"({"a": [1, 2, {"b": "c"}], "d": {}})");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_object());
  const auto& a = v->fields().at("a");
  ASSERT_TRUE(a.is_array());
  ASSERT_EQ(a.items().size(), 3u);
  EXPECT_TRUE(a.items()[2].is_object());
  EXPECT_TRUE(v->fields().at("d").fields().empty());
}

TEST(JsonParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson(R"({"a" 1})").ok());
  EXPECT_FALSE(ParseJson(R"("unterminated)").ok());
  EXPECT_FALSE(ParseJson("true false").ok());  // trailing garbage
  EXPECT_FALSE(ParseJson("nul").ok());
}

TEST(JsonToGraphTest, ObjectBecomesTypedVertexWithAttributes) {
  const auto g = JsonToGraph(
      R"({"type": "item", "color": "white", "qty": 500})");
  ASSERT_TRUE(g.ok());
  // 1 item vertex + 2 attribute vertices.
  ASSERT_EQ(g->num_vertices(), 3u);
  ASSERT_EQ(g->num_edges(), 2u);
  // Root has label from the type field.
  VertexId root = kInvalidVertex;
  for (VertexId v = 0; v < g->num_vertices(); ++v) {
    if (g->label(v) == "item") root = v;
  }
  ASSERT_NE(root, kInvalidVertex);
  std::set<std::string> edges;
  std::set<std::string> values;
  for (const Edge& e : g->OutEdges(root)) {
    edges.insert(g->EdgeLabelName(e.label));
    values.emplace(g->label(e.dst));
  }
  EXPECT_EQ(edges, (std::set<std::string>{"color", "qty"}));
  EXPECT_EQ(values, (std::set<std::string>{"white", "500"}));
}

TEST(JsonToGraphTest, NestedObjectsBecomeEdges) {
  const auto g = JsonToGraph(
      R"({"type": "item",
          "brand": {"type": "brand", "country": "Germany"}})");
  ASSERT_TRUE(g.ok());
  VertexId item = kInvalidVertex;
  VertexId brand = kInvalidVertex;
  for (VertexId v = 0; v < g->num_vertices(); ++v) {
    if (g->label(v) == "item") item = v;
    if (g->label(v) == "brand") brand = v;
  }
  ASSERT_NE(item, kInvalidVertex);
  ASSERT_NE(brand, kInvalidVertex);
  bool linked = false;
  for (const Edge& e : g->OutEdges(item)) {
    if (e.dst == brand && g->EdgeLabelName(e.label) == "brand") linked = true;
  }
  EXPECT_TRUE(linked);
  EXPECT_EQ(g->OutDegree(brand), 1u);  // country attribute
}

TEST(JsonToGraphTest, ArraysFanOut) {
  const auto g = JsonToGraph(
      R"({"type": "paper", "authors": ["Ann", "Bob", "Cyd"]})");
  ASSERT_TRUE(g.ok());
  VertexId paper = kInvalidVertex;
  for (VertexId v = 0; v < g->num_vertices(); ++v) {
    if (g->label(v) == "paper") paper = v;
  }
  ASSERT_NE(paper, kInvalidVertex);
  size_t author_edges = 0;
  for (const Edge& e : g->OutEdges(paper)) {
    if (g->EdgeLabelName(e.label) == "authors") ++author_edges;
  }
  EXPECT_EQ(author_edges, 3u);
}

TEST(JsonToGraphTest, TopLevelArrayIsACollection) {
  const auto g = JsonToGraph(
      R"([{"type": "item", "color": "red"},
          {"type": "item", "color": "blue"}])");
  ASSERT_TRUE(g.ok());
  size_t items = 0;
  for (VertexId v = 0; v < g->num_vertices(); ++v) {
    items += g->label(v) == "item";
  }
  EXPECT_EQ(items, 2u);
}

TEST(JsonToGraphTest, MissingTypeFieldUsesDefaultLabel) {
  Json2GraphOptions opts;
  opts.default_label = "thing";
  const auto g = JsonToGraph(R"({"x": 1})", opts);
  ASSERT_TRUE(g.ok());
  bool found = false;
  for (VertexId v = 0; v < g->num_vertices(); ++v) {
    found |= g->label(v) == "thing";
  }
  EXPECT_TRUE(found);
}

TEST(JsonToGraphTest, CustomTypeField) {
  Json2GraphOptions opts;
  opts.type_field = "@kind";
  const auto g = JsonToGraph(R"({"@kind": "movie", "year": 1999})", opts);
  ASSERT_TRUE(g.ok());
  bool found = false;
  for (VertexId v = 0; v < g->num_vertices(); ++v) {
    found |= g->label(v) == "movie";
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace her
