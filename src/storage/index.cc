#include "storage/index.h"

#include <utility>

namespace mpfdb {

StatusOr<std::unique_ptr<HashIndex>> HashIndex::Build(const Table& table,
                                                      const std::string& var) {
  auto idx = table.schema().IndexOf(var);
  if (!idx) {
    return Status::InvalidArgument("index variable '" + var +
                                   "' not in table " + table.name());
  }
  std::unique_ptr<HashIndex> index(new HashIndex(var, table.NumRows()));
  index->buckets_.Reserve(table.NumRows());
  for (size_t i = 0; i < table.NumRows(); ++i) {
    index->buckets_.FindOrInsert(KeyOf(table.Row(i).var(*idx)), {})
        .first->push_back(i);
  }
  return index;
}

const std::vector<size_t>& HashIndex::Lookup(VarValue value) const {
  static const std::vector<size_t>* empty = new std::vector<size_t>();
  const std::vector<size_t>* rows = buckets_.Find(KeyOf(value));
  return rows == nullptr ? *empty : *rows;
}

}  // namespace mpfdb
