// Unit tests for src/event: Value semantics, schemas, the type registry,
// and event construction.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>

#include "event/event.h"
#include "event/schema.h"
#include "event/value.h"

namespace caesar {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{7}).AsInt(), 7);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("exit").AsString(), "exit");
}

TEST(ValueTest, NumericCoercionInEquality) {
  EXPECT_EQ(Value(int64_t{3}), Value(3.0));
  EXPECT_NE(Value(int64_t{3}), Value(3.5));
  EXPECT_NE(Value(int64_t{3}), Value("3"));
  EXPECT_EQ(Value(), Value());
  EXPECT_NE(Value(), Value(int64_t{0}));
}

TEST(ValueTest, HashAgreesWithEquals) {
  const int64_t big = (int64_t{1} << 53) + 1;  // rounds to 2^53 as a double
  const std::pair<Value, Value> equal_pairs[] = {
      {Value(int64_t{1}), Value(1.0)},
      {Value(0.0), Value(-0.0)},
      {Value(int64_t{0}), Value(-0.0)},
      {Value(int64_t{-7}), Value(-7.0)},
      {Value(big), Value(static_cast<double>(big))},
  };
  for (const auto& [a, b] : equal_pairs) {
    SCOPED_TRACE(a.ToString() + " vs " + b.ToString());
    ASSERT_EQ(a, b);
    EXPECT_EQ(a.Hash(), b.Hash());
  }
  // Ints in the exactly-representable range keep the plain integer hash.
  EXPECT_EQ(Value(int64_t{42}).Hash(), std::hash<int64_t>{}(42));
  EXPECT_EQ(Value(int64_t{1} << 53).Hash(),
            std::hash<int64_t>{}(int64_t{1} << 53));
}

TEST(ValueTest, Compare) {
  EXPECT_LT(Value(int64_t{1}).Compare(Value(2.0)), 0);
  EXPECT_GT(Value(5.0).Compare(Value(int64_t{4})), 0);
  EXPECT_EQ(Value(int64_t{4}).Compare(Value(int64_t{4})), 0);
  EXPECT_LT(Value("abc").Compare(Value("abd")), 0);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(int64_t{7}).ToString(), "7");
  EXPECT_EQ(Value("x").ToString(), "\"x\"");
  EXPECT_EQ(Value().ToString(), "null");
}

TEST(SchemaTest, IndexLookup) {
  Schema schema({{"vid", ValueType::kInt},
                 {"speed", ValueType::kDouble},
                 {"lane", ValueType::kString}});
  EXPECT_EQ(schema.num_attributes(), 3);
  EXPECT_EQ(schema.IndexOf("vid"), 0);
  EXPECT_EQ(schema.IndexOf("lane"), 2);
  EXPECT_EQ(schema.IndexOf("missing"), -1);
  EXPECT_EQ(schema.attribute(1).type, ValueType::kDouble);
}

TEST(TypeRegistryTest, RegisterAndLookup) {
  TypeRegistry registry;
  auto id = registry.Register("PositionReport", {{"vid", ValueType::kInt}});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(registry.Lookup("PositionReport"), id.value());
  EXPECT_EQ(registry.Lookup("Nope"), kInvalidTypeId);
  EXPECT_EQ(registry.type(id.value()).name, "PositionReport");
  EXPECT_EQ(registry.num_types(), 1);
}

TEST(TypeRegistryTest, DuplicateNameFails) {
  TypeRegistry registry;
  ASSERT_TRUE(registry.Register("A", {}).ok());
  Result<TypeId> dup = registry.Register("A", {});
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(TypeRegistryTest, RegisterOrGetReturnsExisting) {
  TypeRegistry registry;
  TypeId a = registry.RegisterOrGet("A", {{"x", ValueType::kInt}});
  TypeId b = registry.RegisterOrGet("A", {{"y", ValueType::kDouble}});
  EXPECT_EQ(a, b);
  // Existing schema wins.
  EXPECT_EQ(registry.type(a).schema.IndexOf("x"), 0);
}

TEST(EventTest, SimpleEventTimes) {
  EventPtr e = MakeEvent(0, 42, {Value(int64_t{1})});
  EXPECT_EQ(e->time(), 42);
  EXPECT_EQ(e->start_time(), 42);
  EXPECT_EQ(e->end_time(), 42);
  EXPECT_EQ(e->num_values(), 1);
}

TEST(EventTest, ComplexEventInterval) {
  EventPtr e = MakeComplexEvent(1, 10, 20, {});
  EXPECT_EQ(e->start_time(), 10);
  EXPECT_EQ(e->end_time(), 20);
  // A complex event "happens" when it completes.
  EXPECT_EQ(e->time(), 20);
}

TEST(EventTest, ToStringIncludesTypeAndAttrs) {
  TypeRegistry registry;
  TypeId id = registry.RegisterOrGet("P", {{"vid", ValueType::kInt}});
  EventPtr e = MakeEvent(id, 5, {Value(int64_t{9})});
  EXPECT_EQ(e->ToString(registry), "P@5(vid=9)");
}

TEST(EventBatchTest, TimeOrderedCheck) {
  EventBatch batch;
  batch.push_back(MakeEvent(0, 1, {}));
  batch.push_back(MakeEvent(0, 2, {}));
  batch.push_back(MakeEvent(0, 2, {}));
  EXPECT_TRUE(IsTimeOrdered(batch));
  batch.push_back(MakeEvent(0, 1, {}));
  EXPECT_FALSE(IsTimeOrdered(batch));
}

}  // namespace
}  // namespace caesar
