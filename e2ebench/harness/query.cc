#include "harness/query.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

namespace e2e {

namespace {

std::string Format(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  return buf;
}

std::string Alias(const HTable& t) {
  return std::string(1, static_cast<char>(std::toupper(t.name[0])));
}

double Tolerance(double v) { return 1e-6 * std::max(1.0, std::fabs(v)); }

/// COUNT(*) range implied by the COUNT constraints, clipped to what
/// `n` rows with multiplicity `m` can reach.
void CountRange(const QuerySpec& q, size_t n, double* lo, double* hi) {
  *lo = 0.0;
  *hi = static_cast<double>(n) * q.repeat;
  for (const Constraint& c : q.such_that) {
    if (c.col != -1) continue;
    *lo = std::max(*lo, std::ceil(c.lo - 1e-9));
    *hi = std::min(*hi, std::floor(c.hi + 1e-9));
  }
}

const Constraint* PricedConstraint(const QuerySpec& q) {
  for (const Constraint& c : q.such_that) {
    if (c.col >= 0 && std::isfinite(c.hi)) return &c;
  }
  return nullptr;
}

}  // namespace

double Literal(double v) { return std::strtod(Format(v).c_str(), nullptr); }

std::string QuerySpec::Paql() const {
  const std::string a = Alias(*table);
  auto col = [&](int c) { return a + "." + table->cols[c].name; };
  std::string s = "SELECT PACKAGE(" + a + ") FROM " + table->name + " " + a;
  if (repeat > 1) s += " REPEAT " + std::to_string(repeat);
  for (size_t i = 0; i < where.size(); ++i) {
    const Pred& p = where[i];
    s += i == 0 ? " WHERE " : " AND ";
    s += col(p.col);
    s += p.op == Pred::kLe ? " <= " : (p.op == Pred::kGe ? " >= " : " = ");
    s += p.code >= 0 ? "'" + table->vocab[p.col][p.code] + "'" : Format(p.num);
  }
  for (size_t i = 0; i < such_that.size(); ++i) {
    const Constraint& c = such_that[i];
    s += i == 0 ? " SUCH THAT " : " AND ";
    s += c.col < 0 ? std::string("COUNT(*)") : "SUM(" + col(c.col) + ")";
    if (c.lo == c.hi) {
      s += " = " + Format(c.lo);
    } else if (!std::isfinite(c.lo)) {
      s += " <= " + Format(c.hi);
    } else if (!std::isfinite(c.hi)) {
      s += " >= " + Format(c.lo);
    } else {
      s += " BETWEEN " + Format(c.lo) + " AND " + Format(c.hi);
    }
  }
  s += " MAXIMIZE SUM(" + col(objective) + ")";
  return s;
}

bool PassesWhere(const QuerySpec& q, size_t row) {
  for (const Pred& p : q.where) {
    if (p.code >= 0) {
      if (q.table->code[p.col][row] != p.code) return false;
      continue;
    }
    const double v = q.table->num[p.col][row];
    if (p.op == Pred::kLe && !(v <= p.num)) return false;
    if (p.op == Pred::kGe && !(v >= p.num)) return false;
    if (p.op == Pred::kEq && !(v == p.num)) return false;
  }
  return true;
}

std::vector<size_t> Candidates(const QuerySpec& q, size_t table_rows) {
  std::vector<size_t> out;
  for (size_t r = 0; r < table_rows; ++r) {
    if (PassesWhere(q, r)) out.push_back(r);
  }
  return out;
}

Pred Eq(const HTable& t, const std::string& col, const std::string& value) {
  Pred p;
  p.col = t.Col(col);
  p.op = Pred::kEq;
  p.code = t.Code(p.col, value);
  return p;
}

double KthSmallest(const HTable& t, const std::vector<Pred>& where,
                   const std::string& col, size_t k) {
  QuerySpec q;
  q.table = &t;
  q.where = where;
  std::vector<double> v;
  const int c = t.Col(col);
  for (size_t r : Candidates(q, t.rows)) v.push_back(t.num[c][r]);
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[std::min(k, v.size()) - 1];
}

std::string CheckAnswer(const QuerySpec& q, const std::vector<size_t>& cands,
                        const Answer& a) {
  if (a.num_candidates != cands.size()) {
    return "num_candidates " + std::to_string(a.num_candidates) +
           " but the harness counts " + std::to_string(cands.size());
  }
  if (a.rows.size() != a.mult.size()) return "rows and multiplicities differ";
  for (size_t i = 0; i < a.rows.size(); ++i) {
    if (i > 0 && a.rows[i] <= a.rows[i - 1]) return "rows not increasing";
    if (!std::binary_search(cands.begin(), cands.end(), a.rows[i])) {
      return "row " + std::to_string(a.rows[i]) + " fails the WHERE clause";
    }
    if (a.mult[i] < 1 || a.mult[i] > q.repeat) {
      return "row " + std::to_string(a.rows[i]) + " taken " +
             std::to_string(a.mult[i]) + " times, REPEAT allows " +
             std::to_string(q.repeat);
    }
  }
  auto sum = [&](int col) {
    double s = 0.0;
    for (size_t i = 0; i < a.rows.size(); ++i) {
      s += static_cast<double>(a.mult[i]) *
           (col < 0 ? 1.0 : q.table->num[col][a.rows[i]]);
    }
    return s;
  };
  for (const Constraint& c : q.such_that) {
    const double v = sum(c.col);
    if (v < c.lo - Tolerance(c.lo) || v > c.hi + Tolerance(c.hi)) {
      return "constraint " +
             (c.col < 0 ? std::string("COUNT(*)")
                        : "SUM(" + q.table->cols[c.col].name + ")") +
             " = " + Format(v) + " outside [" + Format(c.lo) + ", " +
             Format(c.hi) + "]";
    }
  }
  const double objective = sum(q.objective);
  if (std::fabs(objective - a.objective) > Tolerance(objective)) {
    return "reported objective " + Format(a.objective) +
           " but the package sums to " + Format(objective);
  }
  return "";
}

std::optional<double> ExhaustiveOptimum(const QuerySpec& q,
                                        const std::vector<size_t>& cands,
                                        double max_packages) {
  if (q.repeat != 1) return std::nullopt;
  const size_t n = cands.size();
  double klo = 0.0;
  double khi = 0.0;
  CountRange(q, n, &klo, &khi);
  double total = 0.0;
  for (double k = klo; k <= khi; k += 1.0) {
    double binom = 1.0;
    for (double i = 0; i < k && binom <= max_packages; i += 1.0) {
      binom = binom * (static_cast<double>(n) - i) / (i + 1.0);
    }
    total += binom;
    if (total > max_packages) return std::nullopt;
  }

  const size_t nc = q.such_that.size();
  std::vector<double> sums(nc, 0.0);
  double best = -kInf;
  std::function<void(size_t, size_t, double)> visit = [&](size_t next,
                                                          size_t size,
                                                          double objective) {
    if (size >= klo && size <= khi) {
      bool ok = true;
      for (size_t c = 0; c < nc && ok; ++c) {
        const Constraint& k = q.such_that[c];
        ok = sums[c] >= k.lo - Tolerance(k.lo) &&
             sums[c] <= k.hi + Tolerance(k.hi);
      }
      if (ok) best = std::max(best, objective);
    }
    if (size >= khi) return;
    for (size_t i = next; i < n; ++i) {
      const size_t r = cands[i];
      for (size_t c = 0; c < nc; ++c) {
        const int col = q.such_that[c].col;
        sums[c] += col < 0 ? 1.0 : q.table->num[col][r];
      }
      visit(i + 1, size + 1, objective + q.table->num[q.objective][r]);
      for (size_t c = 0; c < nc; ++c) {
        const int col = q.such_that[c].col;
        sums[c] -= col < 0 ? 1.0 : q.table->num[col][r];
      }
    }
  };
  visit(0, 0, 0.0);
  if (!std::isfinite(best)) return std::nullopt;
  return best;
}

double UpperBoundAt(const QuerySpec& q, const std::vector<size_t>& cands,
                    double lambda) {
  const Constraint* priced = PricedConstraint(q);
  const size_t n = cands.size();
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = q.table->num[q.objective][cands[i]];
    if (priced != nullptr) v[i] -= lambda * q.table->num[priced->col][cands[i]];
  }
  double klo = 0.0;
  double khi = 0.0;
  CountRange(q, n, &klo, &khi);
  if (klo > khi) return -kInf;
  // The relaxed problem takes each row up to `repeat` times: the best
  // package takes the top rows in order, mandatory up to klo units, then
  // while a unit still adds value, up to khi units.
  const size_t m = static_cast<size_t>(q.repeat);
  const size_t top = std::min(n, static_cast<size_t>(std::ceil(khi / m)));
  if (top < n) {
    std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(top),
                     v.end(), std::greater<double>());
  }
  std::sort(v.begin(), v.begin() + static_cast<ptrdiff_t>(top),
            std::greater<double>());
  double best = 0.0;
  double units = 0.0;
  for (size_t i = 0; i < top && units < khi; ++i) {
    for (size_t k = 0; k < m && units < khi; ++k) {
      if (units >= klo && v[i] <= 0.0) break;
      best += v[i];
      units += 1.0;
    }
  }
  return best + (priced != nullptr ? lambda * priced->hi : 0.0);
}

double BestMultiplier(const QuerySpec& q, const std::vector<size_t>& cands) {
  if (PricedConstraint(q) == nullptr || cands.empty()) return 0.0;
  auto f = [&](double l) { return UpperBoundAt(q, cands, l); };
  double hi = 1e-9;
  while (hi < 1e12 && f(2.0 * hi) < f(hi)) hi *= 2.0;
  double a = 0.0;
  double b = 2.0 * hi;
  const double g = 0.6180339887498949;
  double x1 = b - g * (b - a);
  double x2 = a + g * (b - a);
  double f1 = f(x1);
  double f2 = f(x2);
  for (int it = 0; it < 80; ++it) {
    if (f1 <= f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - g * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + g * (b - a);
      f2 = f(x2);
    }
  }
  const double best = f1 <= f2 ? x1 : x2;
  return f(0.0) <= f(best) ? 0.0 : best;
}

}  // namespace e2e
