// Tests for the multi-table database facade (schemas, discretization,
// export/import, attribute-space queries).
#include <gtest/gtest.h>

#include "db/database.h"
#include "verify_ok.h"

namespace apqa::db {
namespace {

TEST(TableSchemaTest, DiscretizeMapsAndClamps) {
  TableSchema schema("t", {{"price", 0.0, 100.0}, {"qty", 0.0, 8.0}}, 3);
  core::Domain d = schema.domain();
  EXPECT_EQ(d.dims, 2);
  EXPECT_EQ(d.SideLength(), 8u);
  EXPECT_EQ(schema.Discretize({0.0, 0.0}), (core::Point{0, 0}));
  EXPECT_EQ(schema.Discretize({99.99, 7.99}), (core::Point{7, 7}));
  EXPECT_EQ(schema.Discretize({50.0, 4.0}), (core::Point{4, 4}));
  // Clamped outside the declared range.
  EXPECT_EQ(schema.Discretize({-5.0, 100.0}), (core::Point{0, 7}));
}

TEST(TableSchemaTest, DiscretizeRangeCoversRequest) {
  TableSchema schema("t", {{"x", 0.0, 16.0}}, 4);
  core::Box box = schema.DiscretizeRange({3.2}, {7.9});
  EXPECT_LE(box.lo[0], schema.Discretize({3.2})[0]);
  EXPECT_GE(box.hi[0], schema.Discretize({7.9})[0]);
}

TEST(TableSchemaTest, Validation) {
  EXPECT_THROW(TableSchema("t", {}, 3), std::invalid_argument);
  EXPECT_THROW(TableSchema("t", {{"a", 1.0, 1.0}}, 3), std::invalid_argument);
  EXPECT_THROW(TableSchema("t", {{"a", 0.0, 1.0}}, 0), std::invalid_argument);
  std::vector<AttributeSpec> four(4, AttributeSpec{"a", 0.0, 1.0});
  EXPECT_THROW(TableSchema("t", four, 3), std::invalid_argument);
}

TEST(TableSchemaTest, SerializationRoundTrip) {
  TableSchema schema("orders", {{"price", -3.5, 99.25}, {"qty", 0, 50}}, 5);
  common::ByteWriter w;
  schema.Serialize(&w);
  common::ByteReader r(w.data());
  auto back = TableSchema::Deserialize(&r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->name(), "orders");
  EXPECT_EQ(back->attributes()[0].min, -3.5);
  EXPECT_EQ(back->domain().bits, 5);
}

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    owner_ = std::make_unique<OwnerDatabase>(
        RoleSet{"Analyst", "Admin", "Intern"}, 2024);
    TableSchema schema("trades", {{"price", 0.0, 100.0}}, 4);
    std::vector<Row> rows = {
        {{12.0}, "trade-a", "Analyst | Admin"},
        {{33.0}, "trade-b", "Admin"},
        {{57.0}, "trade-c", "Analyst"},
        {{90.0}, "trade-d", "Intern | Analyst"},
    };
    owner_->CreateTable(schema, rows);
    sp_ = std::make_unique<SpDatabase>(owner_->keys());
    ASSERT_TRUE(sp_->ImportTable(owner_->ExportTable("trades")));
    client_ = std::make_unique<ClientSession>(owner_->keys(),
                                              owner_->Enroll({"Analyst"}));
  }

  std::unique_ptr<OwnerDatabase> owner_;
  std::unique_ptr<SpDatabase> sp_;
  std::unique_ptr<ClientSession> client_;
};

TEST_F(DatabaseTest, AttributeSpaceRangeQuery) {
  core::Vo vo = sp_->Range("trades", {10.0}, {60.0}, client_->roles());
  std::vector<VerifiedRow> rows;
  ASSERT_TRUE(VerifyOk(client_->VerifyRange(sp_->GetSchema("trades"), {10.0},
                                            {60.0}, vo, &rows)));
  std::set<std::string> values;
  for (const auto& r : rows) values.insert(r.value);
  // Analyst sees trade-a and trade-c; trade-b is Admin-only; trade-d is
  // outside [10, 60].
  EXPECT_EQ(values, (std::set<std::string>{"trade-a", "trade-c"}));
}

TEST_F(DatabaseTest, AttributeSpaceEqualityQuery) {
  core::Vo vo = sp_->Equality("trades", {33.0}, client_->roles());
  std::optional<VerifiedRow> row;
  ASSERT_TRUE(VerifyOk(
      client_->VerifyEquality(sp_->GetSchema("trades"), {33.0}, vo, &row)));
  EXPECT_FALSE(row.has_value());  // Admin-only: hidden

  vo = sp_->Equality("trades", {57.0}, client_->roles());
  ASSERT_TRUE(VerifyOk(
      client_->VerifyEquality(sp_->GetSchema("trades"), {57.0}, vo, &row)));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->value, "trade-c");
}

TEST_F(DatabaseTest, JoinAcrossTables) {
  TableSchema schema_s("limits", {{"price", 0.0, 100.0}}, 4);
  std::vector<Row> limits = {
      {{12.0}, "limit-low", "Analyst"},
      {{57.0}, "limit-mid", "Analyst | Admin"},
  };
  owner_->CreateTable(schema_s, limits);
  ASSERT_TRUE(sp_->ImportTable(owner_->ExportTable("limits")));

  core::JoinVo vo =
      sp_->Join("trades", "limits", {0.0}, {99.0}, client_->roles());
  std::vector<std::vector<VerifiedRow>> rows;
  ASSERT_TRUE(VerifyOk(client_->VerifyJoin(sp_->GetSchema("trades"), {0.0},
                                           {99.0}, vo, &rows)));
  std::set<std::string> pairs;
  for (const auto& row : rows) {
    pairs.insert(row[0].value + "+" + row[1].value);
  }
  EXPECT_EQ(pairs, (std::set<std::string>{"trade-a+limit-low",
                                          "trade-c+limit-mid"}));
}

TEST_F(DatabaseTest, ImportRejectsCorruptBundle) {
  auto bundle = owner_->ExportTable("trades");
  bundle.resize(bundle.size() / 3);
  SpDatabase sp2(owner_->keys());
  EXPECT_FALSE(sp2.ImportTable(bundle));
  EXPECT_FALSE(sp2.HasTable("trades"));
}

TEST_F(DatabaseTest, CreateTableValidation) {
  TableSchema schema("bad", {{"x", 0.0, 1.0}}, 3);
  // Unknown policy role.
  EXPECT_THROW(owner_->CreateTable(schema, {{{0.5}, "v", "Stranger"}}),
               std::invalid_argument);
  // Key collision after discretization.
  TableSchema schema2("bad2", {{"x", 0.0, 1.0}}, 2);
  std::vector<Row> colliding = {
      {{0.10}, "v1", "Analyst"},
      {{0.12}, "v2", "Analyst"},  // same cell at 2-bit resolution
  };
  EXPECT_THROW(owner_->CreateTable(schema2, colliding), std::invalid_argument);
  // Duplicate table name.
  TableSchema dup("trades", {{"x", 0.0, 1.0}}, 3);
  EXPECT_THROW(owner_->CreateTable(dup, {}), std::invalid_argument);
}

TEST_F(DatabaseTest, TamperedImportedAdsFailsVerification) {
  // The SP imports a bundle, then flips one byte of a signature in a
  // re-exported copy; queries over the tampered tree must not verify.
  auto bundle = owner_->ExportTable("trades");
  // Flip a byte every 50 bytes: every signature (~1.5 KB each) is hit.
  for (std::size_t i = 25; i < bundle.size(); i += 50) bundle[i] ^= 0x01;
  SpDatabase evil(owner_->keys());
  if (!evil.ImportTable(bundle)) {
    SUCCEED();  // corruption already detected at parse time
    return;
  }
  core::Vo vo = evil.Range("trades", {0.0}, {99.0}, client_->roles());
  EXPECT_FALSE(client_->VerifyRange(sp_->GetSchema("trades"), {0.0}, {99.0},
                                    vo, nullptr));
}

}  // namespace
}  // namespace apqa::db
