#ifndef MPFDB_STORAGE_CATALOG_H_
#define MPFDB_STORAGE_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/index.h"
#include "storage/table.h"
#include "util/status.h"

namespace mpfdb {

// System catalog: registered variables (with their categorical domain sizes)
// and base tables, plus the statistics the optimizers and the cost model
// read — exactly the statistics the paper notes are "readily available in
// the catalog of RDBMS systems" (Section 5.1).
class Catalog {
 public:
  Catalog() = default;

  // Registers a variable with domain [0, domain_size). Re-registering with
  // the same size is a no-op; with a different size it is an error.
  Status RegisterVariable(const std::string& name, int64_t domain_size);
  bool HasVariable(const std::string& name) const;
  // Domain size of a variable (σ_X in the paper). Error if unregistered.
  StatusOr<int64_t> DomainSize(const std::string& name) const;
  // Every registered variable with its domain size, by name.
  const std::map<std::string, int64_t>& variables() const {
    return variable_domains_;
  }

  // Registers a table; all its schema variables must be registered first.
  Status RegisterTable(TablePtr table);
  // Swaps a new version of an already-registered table in under the same
  // name (copy-on-write updates: readers holding the old TablePtr keep a
  // consistent snapshot). The schema must be unchanged; any indexes on the
  // table are rebuilt against the new version.
  Status ReplaceTable(TablePtr table);
  Status DropTable(const std::string& name);
  bool HasTable(const std::string& name) const;
  StatusOr<TablePtr> GetTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  // Cardinality of a registered table.
  StatusOr<int64_t> Cardinality(const std::string& table_name) const;

  // Size of the smallest registered table among `table_names` that contains
  // variable `var` (σ̂_X in the linearity test, Eq. 1). Error if no listed
  // table contains the variable.
  StatusOr<int64_t> SmallestRelationWith(
      const std::string& var, const std::vector<std::string>& table_names) const;

  // Fraction of the cross product of variable domains that is populated:
  // |T| / Π σ_X. Complete functional relations have density 1.
  StatusOr<double> Density(const std::string& table_name) const;

  // Builds a hash index on one variable of a registered table, giving
  // equality selections an index-scan access path. Re-creating an existing
  // index rebuilds it. Indexes are dropped with their table.
  Status CreateIndex(const std::string& table_name, const std::string& var);
  // The index on (table, var), or nullptr if none exists.
  const HashIndex* GetIndex(const std::string& table_name,
                            const std::string& var) const;

 private:
  std::map<std::string, int64_t> variable_domains_;
  std::map<std::string, TablePtr> tables_;
  // (table, var) -> index. shared_ptr so copied catalogs (what-if scratch
  // catalogs) share immutable indexes.
  std::map<std::pair<std::string, std::string>, std::shared_ptr<HashIndex>>
      indexes_;
};

}  // namespace mpfdb

#endif  // MPFDB_STORAGE_CATALOG_H_
