#include "db/database.h"

#include <stdexcept>

namespace apqa::db {

OwnerDatabase::OwnerDatabase(const RoleSet& role_universe, std::uint64_t seed)
    : universe_(role_universe), seed_(seed) {
  // The DataOwner's domain member only matters for its BuildAds shortcut;
  // tables carry their own domains and are built directly.
  owner_ = std::make_unique<core::DataOwner>(role_universe, core::Domain{1, 1},
                                             seed);
}

void OwnerDatabase::CreateTable(const TableSchema& schema,
                                const std::vector<Row>& rows) {
  if (tables_.count(schema.name())) {
    throw std::invalid_argument("table exists: " + schema.name());
  }
  std::vector<core::Record> records;
  records.reserve(rows.size());
  for (const Row& row : rows) {
    core::Record r;
    r.key = schema.Discretize(row.attrs);
    r.value = row.value;
    r.policy = core::Policy::Parse(row.policy);
    for (const auto& role : r.policy.Roles()) {
      if (!keys().universe.count(role)) {
        throw std::invalid_argument("policy role outside universe: " + role);
      }
      if (role == core::kPseudoRole) {
        throw std::invalid_argument("Role@NULL is reserved");
      }
    }
    records.push_back(std::move(r));
  }
  core::GridTree tree =
      core::GridTree::Build(keys().mvk, owner_->signing_key(), schema.domain(),
                            records, owner_->rng());
  tables_.emplace(schema.name(), Table{schema, std::move(tree)});
}

bool OwnerDatabase::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

const TableSchema& OwnerDatabase::GetSchema(const std::string& name) const {
  return tables_.at(name).schema;
}

std::vector<std::uint8_t> OwnerDatabase::ExportTable(
    const std::string& name) const {
  const Table& table = tables_.at(name);
  common::ByteWriter w;
  table.schema.Serialize(&w);
  table.tree.Serialize(&w);
  return w.Take();
}

bool SpDatabase::ImportTable(const std::vector<std::uint8_t>& bundle) {
  common::ByteReader r(bundle);
  auto schema = TableSchema::Deserialize(&r);
  if (!schema.has_value()) return false;
  auto tree = core::GridTree::Deserialize(&r);
  if (!tree.has_value() || !r.ok()) return false;
  if (tree->domain().dims != schema->domain().dims ||
      tree->domain().bits != schema->domain().bits) {
    return false;
  }
  std::string name = schema->name();
  tables_.insert_or_assign(name, Table{std::move(*schema), std::move(*tree)});
  return true;
}

bool SpDatabase::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

const TableSchema& SpDatabase::GetSchema(const std::string& name) const {
  return tables_.at(name).schema;
}

core::Vo SpDatabase::Equality(const std::string& table,
                              const std::vector<double>& attrs,
                              const RoleSet& roles) {
  const Table& t = tables_.at(table);
  return core::BuildEqualityVo(t.tree, keys_.mvk, t.schema.Discretize(attrs),
                               roles, keys_.universe, &rng_);
}

core::Vo SpDatabase::Range(const std::string& table,
                           const std::vector<double>& lo,
                           const std::vector<double>& hi,
                           const RoleSet& roles) {
  const Table& t = tables_.at(table);
  return core::BuildRangeVo(t.tree, keys_.mvk, t.schema.DiscretizeRange(lo, hi),
                            roles, keys_.universe, &rng_);
}

core::JoinVo SpDatabase::Join(const std::string& table_r,
                              const std::string& table_s,
                              const std::vector<double>& lo,
                              const std::vector<double>& hi,
                              const RoleSet& roles) {
  const Table& tr = tables_.at(table_r);
  const Table& ts = tables_.at(table_s);
  return core::BuildJoinVo({&tr.tree, &ts.tree}, keys_.mvk,
                           tr.schema.DiscretizeRange(lo, hi), roles,
                           keys_.universe, &rng_);
}

namespace {

VerifiedRow ToVerifiedRow(const core::Record& r) {
  return VerifiedRow{r.key, r.value, r.policy.ToString()};
}

}  // namespace

core::VerifyResult ClientSession::VerifyRange(
    const TableSchema& schema, const std::vector<double>& lo,
    const std::vector<double>& hi, const core::Vo& vo,
    std::vector<VerifiedRow>* rows) const {
  std::vector<core::Record> results;
  core::VerifyResult r =
      core::VerifyRangeVo(Context(schema), schema.DiscretizeRange(lo, hi), vo,
                          &results);
  if (r.ok() && rows != nullptr) {
    for (const auto& rec : results) rows->push_back(ToVerifiedRow(rec));
  }
  return r;
}

core::VerifyResult ClientSession::VerifyEquality(
    const TableSchema& schema, const std::vector<double>& attrs,
    const core::Vo& vo, std::optional<VerifiedRow>* row) const {
  core::Record result;
  bool accessible = false;
  core::VerifyResult r = core::VerifyEqualityVo(
      Context(schema), schema.Discretize(attrs), vo, &result, &accessible);
  if (r.ok() && row != nullptr) {
    if (accessible) {
      *row = ToVerifiedRow(result);
    } else {
      row->reset();
    }
  }
  return r;
}

core::VerifyResult ClientSession::VerifyJoin(
    const TableSchema& schema_r, const std::vector<double>& lo,
    const std::vector<double>& hi, const core::JoinVo& vo,
    std::vector<std::vector<VerifiedRow>>* rows) const {
  std::vector<std::vector<core::Record>> results;
  core::VerifyResult r = core::VerifyJoinVo(
      Context(schema_r), schema_r.DiscretizeRange(lo, hi), 2, vo, &results);
  if (r.ok() && rows != nullptr) {
    for (const auto& tuple : results) {
      std::vector<VerifiedRow> row;
      for (const auto& rec : tuple) row.push_back(ToVerifiedRow(rec));
      rows->push_back(std::move(row));
    }
  }
  return r;
}

core::VerifyContext ClientSession::Context(const TableSchema& schema) const {
  return core::VerifyContext(keys_.mvk, schema.domain(), creds_.roles,
                             keys_.universe);
}

}  // namespace apqa::db
