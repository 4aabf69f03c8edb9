#include "storage/catalog.h"

#include <limits>

namespace mpfdb {

Status Catalog::RegisterVariable(const std::string& name, int64_t domain_size) {
  if (domain_size <= 0) {
    return Status::InvalidArgument("variable '" + name +
                                   "' must have positive domain size");
  }
  auto it = variable_domains_.find(name);
  if (it != variable_domains_.end()) {
    if (it->second != domain_size) {
      return Status::AlreadyExists(
          "variable '" + name + "' already registered with different domain");
    }
    return Status::Ok();
  }
  variable_domains_[name] = domain_size;
  return Status::Ok();
}

bool Catalog::HasVariable(const std::string& name) const {
  return variable_domains_.count(name) > 0;
}

StatusOr<int64_t> Catalog::DomainSize(const std::string& name) const {
  auto it = variable_domains_.find(name);
  if (it == variable_domains_.end()) {
    return Status::NotFound("variable '" + name + "' not registered");
  }
  return it->second;
}

Status Catalog::RegisterTable(TablePtr table) {
  if (table == nullptr) {
    return Status::InvalidArgument("null table");
  }
  for (const auto& var : table->schema().variables()) {
    if (!HasVariable(var)) {
      return Status::FailedPrecondition("table '" + table->name() +
                                        "' references unregistered variable '" +
                                        var + "'");
    }
  }
  if (tables_.count(table->name()) > 0) {
    return Status::AlreadyExists("table '" + table->name() +
                                 "' already exists");
  }
  tables_[table->name()] = std::move(table);
  return Status::Ok();
}

Status Catalog::ReplaceTable(TablePtr table) {
  if (table == nullptr) {
    return Status::InvalidArgument("null table");
  }
  auto it = tables_.find(table->name());
  if (it == tables_.end()) {
    return Status::NotFound("table '" + table->name() + "' does not exist");
  }
  if (!(it->second->schema() == table->schema())) {
    return Status::InvalidArgument("replacement for table '" + table->name() +
                                   "' changes its schema");
  }
  // Hash indexes map variable values to row ids, so they stay valid across
  // measure-only versions (which share the old table's variable block).
  // Only rebuild them when the variable data actually changed.
  if (!table->SharesVarDataWith(*it->second)) {
    for (auto& [key, index] : indexes_) {
      if (key.first != table->name()) continue;
      MPFDB_ASSIGN_OR_RETURN(std::unique_ptr<HashIndex> rebuilt,
                             HashIndex::Build(*table, key.second));
      index = std::move(rebuilt);
    }
  }
  it->second = std::move(table);
  return Status::Ok();
}

Status Catalog::DropTable(const std::string& name) {
  if (tables_.erase(name) == 0) {
    return Status::NotFound("table '" + name + "' does not exist");
  }
  for (auto it = indexes_.begin(); it != indexes_.end();) {
    if (it->first.first == name) {
      it = indexes_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::Ok();
}

Status Catalog::CreateIndex(const std::string& table_name,
                            const std::string& var) {
  MPFDB_ASSIGN_OR_RETURN(TablePtr table, GetTable(table_name));
  MPFDB_ASSIGN_OR_RETURN(std::unique_ptr<HashIndex> index,
                         HashIndex::Build(*table, var));
  indexes_[{table_name, var}] = std::move(index);
  return Status::Ok();
}

const HashIndex* Catalog::GetIndex(const std::string& table_name,
                                   const std::string& var) const {
  auto it = indexes_.find({table_name, var});
  return it == indexes_.end() ? nullptr : it->second.get();
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

StatusOr<TablePtr> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' does not exist");
  }
  return it->second;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

StatusOr<int64_t> Catalog::Cardinality(const std::string& table_name) const {
  MPFDB_ASSIGN_OR_RETURN(TablePtr table, GetTable(table_name));
  return static_cast<int64_t>(table->NumRows());
}

StatusOr<int64_t> Catalog::SmallestRelationWith(
    const std::string& var, const std::vector<std::string>& table_names) const {
  int64_t best = std::numeric_limits<int64_t>::max();
  bool found = false;
  for (const auto& name : table_names) {
    MPFDB_ASSIGN_OR_RETURN(TablePtr table, GetTable(name));
    if (table->schema().HasVariable(var)) {
      best = std::min(best, static_cast<int64_t>(table->NumRows()));
      found = true;
    }
  }
  if (!found) {
    return Status::NotFound("no listed table contains variable '" + var + "'");
  }
  return best;
}

StatusOr<double> Catalog::Density(const std::string& table_name) const {
  MPFDB_ASSIGN_OR_RETURN(TablePtr table, GetTable(table_name));
  double domain_product = 1.0;
  for (const auto& var : table->schema().variables()) {
    MPFDB_ASSIGN_OR_RETURN(int64_t size, DomainSize(var));
    domain_product *= static_cast<double>(size);
  }
  if (domain_product <= 0) return 0.0;
  return static_cast<double>(table->NumRows()) / domain_product;
}

}  // namespace mpfdb
