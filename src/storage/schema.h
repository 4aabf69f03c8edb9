#ifndef MPFDB_STORAGE_SCHEMA_H_
#define MPFDB_STORAGE_SCHEMA_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/status.h"

namespace mpfdb {

// Value of a variable (non-measure) attribute. Variables are categorical:
// each variable has a domain size D registered in the Catalog, and values
// range over [0, D).
using VarValue = int32_t;

// Schema of a functional relation: an ordered list of variable attribute
// names plus one measure attribute. The functional dependency
// vars -> measure (Definition 1 of the paper) is an invariant enforced by
// Table and checked by fr::CheckFunctionalDependency.
class Schema {
 public:
  Schema() = default;
  Schema(std::vector<std::string> variables, std::string measure_name)
      : variables_(std::move(variables)),
        measure_name_(std::move(measure_name)) {}

  const std::vector<std::string>& variables() const { return variables_; }
  const std::string& measure_name() const { return measure_name_; }
  size_t arity() const { return variables_.size(); }

  // Index of `name` among the variables, or nullopt if absent.
  std::optional<size_t> IndexOf(const std::string& name) const;
  bool HasVariable(const std::string& name) const {
    return IndexOf(name).has_value();
  }

  // "(a, b, c; f)".
  std::string ToString() const;

  bool operator==(const Schema& other) const {
    return variables_ == other.variables_ &&
           measure_name_ == other.measure_name_;
  }

 private:
  std::vector<std::string> variables_;
  std::string measure_name_;
};

// Set-style helpers on variable-name lists (order-preserving where noted).
// Used pervasively by the algebra and the optimizers.
namespace varset {

// Union preserving the order of `a` then new names of `b`.
std::vector<std::string> Union(const std::vector<std::string>& a,
                               const std::vector<std::string>& b);
// Intersection in the order of `a`.
std::vector<std::string> Intersect(const std::vector<std::string>& a,
                                   const std::vector<std::string>& b);
// Elements of `a` not in `b`, in the order of `a`.
std::vector<std::string> Difference(const std::vector<std::string>& a,
                                    const std::vector<std::string>& b);
bool Contains(const std::vector<std::string>& set, const std::string& name);
// True if every element of `sub` appears in `super`.
bool IsSubset(const std::vector<std::string>& sub,
              const std::vector<std::string>& super);
// True if the two lists contain the same names, ignoring order.
bool SetEquals(const std::vector<std::string>& a,
               const std::vector<std::string>& b);

}  // namespace varset

}  // namespace mpfdb

#endif  // MPFDB_STORAGE_SCHEMA_H_
