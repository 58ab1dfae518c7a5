// Tests for src/core/io: CSV import/export of incomplete relations,
// including the `_k` marked-null syntax plain SQL dumps cannot express.

#include <gtest/gtest.h>

#include "core/io.h"

namespace incdb {
namespace {

TEST(IoTest, LoadBasicTypes) {
  auto rel = LoadRelationCsv(
      "id,name,score\n"
      "1,'ann',3.5\n"
      "2,bob,4\n");
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ(rel->attrs(), (std::vector<std::string>{"id", "name", "score"}));
  EXPECT_EQ(rel->TotalSize(), 2u);
  EXPECT_TRUE(rel->Contains(
      Tuple{Value::Int(1), Value::String("ann"), Value::Double(3.5)}));
  EXPECT_TRUE(rel->Contains(
      Tuple{Value::Int(2), Value::String("bob"), Value::Int(4)}));
}

TEST(IoTest, FreshAndMarkedNulls) {
  auto rel = LoadRelationCsv(
      "a,b\n"
      "NULL,_7\n"
      "_7,NULL\n",
      /*first_fresh_null=*/100);
  ASSERT_TRUE(rel.ok());
  // Two fresh NULLs got ids 100 and 101; _7 is the same marked null twice.
  EXPECT_TRUE(rel->Contains(Tuple{Value::Null(100), Value::Null(7)}));
  EXPECT_TRUE(rel->Contains(Tuple{Value::Null(7), Value::Null(101)}));
}

TEST(IoTest, Errors) {
  EXPECT_FALSE(LoadRelationCsv("").ok());
  EXPECT_FALSE(LoadRelationCsv("a,b\n1\n").ok());       // cell count
  EXPECT_FALSE(LoadRelationCsv("a,b\n1,,\n").ok());     // cell count again
  EXPECT_FALSE(LoadRelationCsv("a,\n1,2\n").ok());      // empty attr name
  auto empty_cell = LoadRelationCsv("a,b\n1,\n");
  EXPECT_FALSE(empty_cell.ok());                        // empty cell value
}

// Numbers beyond int64 / uint64 / double range are kInvalidArgument, not
// an uncaught std::out_of_range.
TEST(IoTest, OutOfRangeNumbersRejected) {
  for (const std::string& cell :
       {std::string("99999999999999999999"),
        std::string("_99999999999999999999999"),
        "1" + std::string(400, '0') + ".5"}) {
    auto rel = LoadRelationCsv("a\n" + cell + "\n");
    ASSERT_FALSE(rel.ok()) << cell;
    EXPECT_EQ(rel.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rel.status().message().find("line 2"), std::string::npos)
        << rel.status().ToString();
    EXPECT_NE(rel.status().message().find("out of range"), std::string::npos)
        << rel.status().ToString();
  }
  // The extremes themselves still load.
  auto edge = LoadRelationCsv(
      "a,b\n9223372036854775807,_18446744073709551615\n"
      "-9223372036854775808,+7\n");
  ASSERT_TRUE(edge.ok()) << edge.status().ToString();
  EXPECT_TRUE(edge->Contains(Tuple{Value::Int(INT64_MAX),
                                   Value::Null(UINT64_MAX)}));
  EXPECT_TRUE(edge->Contains(Tuple{Value::Int(INT64_MIN), Value::Int(7)}));
}

TEST(IoTest, QuotedCommasAndSpaces) {
  auto rel = LoadRelationCsv(
      "a,b\n"
      " 'x, y' , 3 \n");
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_TRUE(rel->Contains(Tuple{Value::String("x, y"), Value::Int(3)}));
}

TEST(IoTest, RoundTrip) {
  Relation rel({"x", "y"});
  rel.Add({Value::Int(-3), Value::String("a b")});
  rel.Add({Value::Null(4), Value::Null(4)});
  rel.Add({Value::Double(2.5), Value::Int(7)}, 2);  // multiplicity 2
  std::string dumped = DumpRelationCsv(rel);
  auto back = LoadRelationCsv(dumped);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->SameRows(rel)) << dumped;
}

}  // namespace
}  // namespace incdb
