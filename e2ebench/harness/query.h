// Package queries as the benchmark builds them, and the checks it makes on
// the program's answers with its own arithmetic.
//
// A QuerySpec is rendered to PaQL text for the program; the same spec is
// what the harness evaluates against its own copy of the rows. The shape
// covers every query the workloads issue: a conjunctive WHERE of column
// comparisons, optional REPEAT, a conjunction of COUNT(*)/SUM(col) range
// constraints, and MAXIMIZE SUM(col).

#ifndef E2EBENCH_HARNESS_QUERY_H_
#define E2EBENCH_HARNESS_QUERY_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "harness/data.h"

namespace e2e {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

struct Pred {
  enum Op { kLe, kGe, kEq };
  int col = 0;
  Op op = kEq;
  double num = 0.0;  ///< numeric operand (kLe/kGe, or kEq on a number)
  int code = -1;     ///< string operand as a vocabulary code (kEq), or -1
};

/// lo <= AGG <= hi, where AGG is COUNT(*) (col == -1) or SUM(col).
struct Constraint {
  int col = -1;
  double lo = -kInf;
  double hi = kInf;
};

struct QuerySpec {
  const HTable* table = nullptr;
  int repeat = 1;  ///< max occurrences of one row (REPEAT k; 1 = none)
  std::vector<Pred> where;
  std::vector<Constraint> such_that;
  int objective = 0;  ///< MAXIMIZE SUM(objective)

  /// The PaQL text. Numeric literals are printed so that they parse back
  /// to exactly the doubles stored in the spec.
  std::string Paql() const;
};

/// Rounds a literal to what its printed form parses back to.
double Literal(double v);

/// The program's answer to one query, as the checks see it.
struct Answer {
  std::vector<size_t> rows;
  std::vector<int64_t> mult;
  double objective = 0.0;
  size_t num_candidates = 0;
};

bool PassesWhere(const QuerySpec& q, size_t row);
/// Rows of the first `table_rows` rows that pass WHERE, ascending.
std::vector<size_t> Candidates(const QuerySpec& q, size_t table_rows);

/// `col = 'value'` on a string column of `t`.
Pred Eq(const HTable& t, const std::string& col, const std::string& value);
/// The k-th smallest value of `col` (k from 1) over the rows of `t` that
/// pass `where`; 0 when none does.
double KthSmallest(const HTable& t, const std::vector<Pred>& where,
                   const std::string& col, size_t k);

/// Empty when `a` is a valid package for `q` over the first `table_rows`
/// rows with the objective the harness sums itself; otherwise why not.
/// Checks WHERE, REPEAT, every SUCH THAT constraint, the objective, and
/// that num_candidates equals the harness's own count (`cands`).
std::string CheckAnswer(const QuerySpec& q, const std::vector<size_t>& cands,
                        const Answer& a);

/// The best objective over every package of `cands`, by enumeration, or
/// nullopt when the instance is too large (more than `max_packages`
/// packages to try) or uses REPEAT. nullopt also when no package is valid.
std::optional<double> ExhaustiveOptimum(const QuerySpec& q,
                                        const std::vector<size_t>& cands,
                                        double max_packages);

/// An upper bound on the objective: the Lagrangian relaxation that keeps
/// the COUNT(*) range and REPEAT, prices the first SUM(col) <= hi
/// constraint at multiplier `lambda`, and drops every other constraint.
/// Valid for every lambda >= 0.
double UpperBoundAt(const QuerySpec& q, const std::vector<size_t>& cands,
                    double lambda);
/// The multiplier that minimizes UpperBoundAt (golden-section search; the
/// bound is convex in lambda). 0 when no constraint is priced.
double BestMultiplier(const QuerySpec& q, const std::vector<size_t>& cands);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_QUERY_H_
