// Multi-table database facade — the adoption surface for the library.
//
// Wraps the three-party protocol (core/system.h) in the shapes a real
// deployment uses:
//
//   * OwnerDatabase  — the data owner's catalog: create tables over
//     real-valued schemas, enroll users, export each table's signed ADS as
//     bytes for outsourcing;
//   * SpDatabase     — the service provider: import ADS bytes, answer
//     equality/range/join queries by table name;
//   * ClientSession  — a user's verifying client: issues attribute-space
//     queries and returns decoded, verified rows.
//
// Records whose discretized keys collide are rejected at insert (duplicate
// handling lives in core/duplicates.h and can be layered on demand).
#ifndef APQA_DB_DATABASE_H_
#define APQA_DB_DATABASE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/system.h"
#include "db/schema.h"

namespace apqa::db {

using core::RoleSet;

struct Row {
  std::vector<double> attrs;  // query attribute values, schema order
  std::string value;          // payload
  std::string policy;         // monotone policy text, e.g. "(A & B) | C"
};

// A verified row returned to the client.
struct VerifiedRow {
  core::Point cell;
  std::string value;
  std::string policy;
};

class OwnerDatabase {
 public:
  OwnerDatabase(const RoleSet& role_universe, std::uint64_t seed);

  // Builds and signs the table ADS. Throws on schema violations, unknown
  // policy roles, or key collisions after discretization.
  void CreateTable(const TableSchema& schema, const std::vector<Row>& rows);

  bool HasTable(const std::string& name) const;
  const TableSchema& GetSchema(const std::string& name) const;

  // Serialized (schema + signed ADS) bundle for outsourcing to the SP.
  std::vector<std::uint8_t> ExportTable(const std::string& name) const;

  const core::SystemKeys& keys() const { return owner_->keys(); }
  core::UserCredentials Enroll(const RoleSet& roles) {
    return owner_->EnrollUser(roles);
  }

 private:
  // One DataOwner per table domain is avoided by fixing a single domain per
  // table; the DataOwner only provides key material, which is shared.
  std::unique_ptr<core::DataOwner> owner_;
  struct Table {
    TableSchema schema;
    core::GridTree tree;
  };
  std::map<std::string, Table> tables_;
  RoleSet universe_;
  std::uint64_t seed_;
};

class SpDatabase {
 public:
  explicit SpDatabase(core::SystemKeys keys) : keys_(std::move(keys)) {}

  // Imports an exported table bundle; returns false on malformed input.
  bool ImportTable(const std::vector<std::uint8_t>& bundle);

  bool HasTable(const std::string& name) const;
  const TableSchema& GetSchema(const std::string& name) const;

  core::Vo Equality(const std::string& table, const std::vector<double>& attrs,
                    const RoleSet& roles);
  core::Vo Range(const std::string& table, const std::vector<double>& lo,
                 const std::vector<double>& hi, const RoleSet& roles);
  // Equi-join of two 1-attribute tables on their shared key grid.
  core::JoinVo Join(const std::string& table_r, const std::string& table_s,
                    const std::vector<double>& lo, const std::vector<double>& hi,
                    const RoleSet& roles);

 private:
  core::SystemKeys keys_;
  struct Table {
    TableSchema schema;
    core::GridTree tree;
  };
  std::map<std::string, Table> tables_;
  crypto::Rng rng_;
};

class ClientSession {
 public:
  ClientSession(core::SystemKeys keys, core::UserCredentials creds)
      : keys_(std::move(keys)), creds_(std::move(creds)) {}

  const RoleSet& roles() const { return creds_.roles; }

  // Verifies a range VO produced for [lo, hi] on `schema`. On success fills
  // `rows` with the accessible results.
  core::VerifyResult VerifyRange(const TableSchema& schema,
                                 const std::vector<double>& lo,
                                 const std::vector<double>& hi,
                                 const core::Vo& vo,
                                 std::vector<VerifiedRow>* rows) const;

  core::VerifyResult VerifyEquality(const TableSchema& schema,
                                    const std::vector<double>& attrs,
                                    const core::Vo& vo,
                                    std::optional<VerifiedRow>* row) const;

  // Verifies a SpDatabase::Join VO; `rows` gets one row per table for each
  // result tuple.
  core::VerifyResult VerifyJoin(
      const TableSchema& schema_r, const std::vector<double>& lo,
      const std::vector<double>& hi, const core::JoinVo& vo,
      std::vector<std::vector<VerifiedRow>>* rows) const;

 private:
  core::VerifyContext Context(const TableSchema& schema) const;

  core::SystemKeys keys_;
  core::UserCredentials creds_;
};

}  // namespace apqa::db

#endif  // APQA_DB_DATABASE_H_
