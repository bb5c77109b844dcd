#ifndef HER_RELATIONAL_RELATIONAL_H_
#define HER_RELATIONAL_RELATIONAL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace her {

/// An attribute of a relation schema. A foreign-key attribute stores, as its
/// value, the key of a tuple in `ref_relation` (cf. Table I's brand column
/// referencing Table II).
struct AttributeDef {
  std::string name;
  bool is_foreign_key = false;
  std::string ref_relation{};  // set iff is_foreign_key
};

/// Relation schema R = (A_1, ..., A_k).
class RelationSchema {
 public:
  RelationSchema() = default;
  RelationSchema(std::string name, std::vector<AttributeDef> attributes)
      : name_(std::move(name)), attributes_(std::move(attributes)) {
    for (size_t i = 0; i < attributes_.size(); ++i) {
      index_[attributes_[i].name] = i;
    }
  }

  const std::string& name() const { return name_; }
  const std::vector<AttributeDef>& attributes() const { return attributes_; }
  size_t arity() const { return attributes_.size(); }

  /// Index of the attribute named `attr`, or nullopt.
  std::optional<size_t> AttributeIndex(std::string_view attr) const;

 private:
  std::string name_;
  std::vector<AttributeDef> attributes_;
  std::unordered_map<std::string, size_t> index_;
};

/// Null attribute values are represented by this sentinel (the paper's
/// Table I shows nulls; RDB2RDF skips them).
inline constexpr std::string_view kNullValue = "\x01null";

/// A tuple: a unique key within its relation plus one value per attribute.
struct Tuple {
  std::string key;
  std::vector<std::string> values;
};

/// Identifies a tuple inside a Database.
struct TupleRef {
  uint32_t relation = 0;
  uint32_t row = 0;

  friend bool operator==(const TupleRef&, const TupleRef&) = default;
};

/// A relation: a set of tuples of one schema, keyed for FK resolution.
class Relation {
 public:
  explicit Relation(RelationSchema schema) : schema_(std::move(schema)) {}

  const RelationSchema& schema() const { return schema_; }
  size_t size() const { return tuples_.size(); }
  const Tuple& tuple(uint32_t row) const { return tuples_[row]; }
  const std::vector<Tuple>& tuples() const { return tuples_; }

  /// Appends a tuple. Returns InvalidArgument on arity mismatch and
  /// AlreadyExists on a duplicate key.
  Status Insert(Tuple t);

  /// Row index of the tuple with `key`, or nullopt.
  std::optional<uint32_t> FindByKey(std::string_view key) const;

 private:
  RelationSchema schema_;
  std::vector<Tuple> tuples_;
  std::unordered_map<std::string, uint32_t> key_index_;
};

/// Database D = (D_1, ..., D_n) of schema R = (R_1, ..., R_n).
class Database {
 public:
  /// Adds an empty relation; returns its index. Fails on duplicate names.
  Result<uint32_t> AddRelation(RelationSchema schema);

  size_t num_relations() const { return relations_.size(); }
  const Relation& relation(uint32_t idx) const { return relations_[idx]; }
  Relation& relation(uint32_t idx) { return relations_[idx]; }

  /// Index of the relation named `name`, or nullopt.
  std::optional<uint32_t> FindRelation(std::string_view name) const;

  /// Inserts into the named relation.
  Status Insert(std::string_view relation_name, Tuple t);

  /// Resolves a foreign-key value to the referenced tuple.
  std::optional<TupleRef> ResolveForeignKey(uint32_t relation_idx,
                                            size_t attr_idx,
                                            std::string_view value) const;

  /// Total number of tuples across all relations.
  size_t TotalTuples() const;

  /// Validates referential integrity of every FK value (null FKs allowed).
  Status ValidateForeignKeys() const;

 private:
  std::vector<Relation> relations_;
  std::unordered_map<std::string, uint32_t> name_index_;
};

}  // namespace her

#endif  // HER_RELATIONAL_RELATIONAL_H_
