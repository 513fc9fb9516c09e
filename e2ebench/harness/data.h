// Synthetic tables generated by the benchmark itself.
//
// The benchmark owns its data: every row is drawn here from the workload
// seed, kept in a column-major copy (HTable) that the correctness checks
// read, and only then handed to the program as a db::Table, appended
// tuples, a CSV file, or an append request. The program never sees the
// seed.

#ifndef E2EBENCH_HARNESS_DATA_H_
#define E2EBENCH_HARNESS_DATA_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "db/table.h"
#include "db/tuple.h"

namespace e2e {

/// splitmix64: small, fast and identical on every platform, so one seed
/// gives the same rows everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Unit(); }
  /// Uniform integer in [lo, hi].
  int64_t Int(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  size_t Index(size_t n) { return static_cast<size_t>(Next() % n); }
  double Normal() {
    const double u = 1.0 - Unit();
    return std::sqrt(-2.0 * std::log(u)) * std::cos(6.283185307179586 * Unit());
  }

 private:
  uint64_t state_;
};

enum class ColType { kInt, kDouble, kString };

struct ColumnDef {
  std::string name;
  ColType type;
};

/// Column-major copy of a generated table. Numeric cells (INT columns
/// too) live in `num[c]`; string cells are codes into `vocab[c]`.
struct HTable {
  std::string name;
  /// The scenario whose rows GenerateRows draws: the name the table was
  /// created with, kept when `name` changes.
  std::string kind;
  std::vector<ColumnDef> cols;
  std::vector<std::vector<double>> num;
  std::vector<std::vector<uint16_t>> code;
  std::vector<std::vector<std::string>> vocab;
  size_t rows = 0;

  HTable(std::string table_name, std::vector<ColumnDef> columns,
         std::vector<std::vector<std::string>> vocabularies);
  /// Column index by name; aborts on an unknown name (a harness bug).
  int Col(const std::string& column) const;
  /// Code of `value` in a string column's vocabulary; aborts when absent.
  uint16_t Code(int col, const std::string& value) const;
};

/// Rounds to two decimals the way every generated DOUBLE cell is stored,
/// so a CSV round trip through "%.2f" reproduces it exactly.
inline double Round2(double v) { return std::round(v * 100.0) / 100.0; }

// Empty tables with the schema of each of the paper's scenarios.
HTable NewRecipes();
HTable NewStocks();
HTable NewTravel();
HTable NewLineitem();
/// Appends `n` rows drawn from the table kind's distribution; ids continue
/// from the current row count.
void GenerateRows(HTable* t, size_t n, Rng* rng);

/// Rows [begin, end) as a db::Table named like `t`.
pb::db::Table ToDbTable(const HTable& t, size_t begin, size_t end);
/// Rows [begin, end) as tuples for Table/Engine::AppendRows.
std::vector<pb::db::Tuple> ToTuples(const HTable& t, size_t begin, size_t end);
/// Rows [begin, end) as the JSON array of row arrays an append request
/// carries.
std::string ToJsonRows(const HTable& t, size_t begin, size_t end);
/// Writes the whole table as CSV with a header; false on an I/O error.
bool WriteCsv(const HTable& t, const std::string& path);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_DATA_H_
