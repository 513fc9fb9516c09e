// Tests for the benchmark's answer checks: each check must reject a
// package it is there to reject, and accept the right one.
//
//   ctest --test-dir .bench_build/e2ebench

#include <cstdio>
#include <string>
#include <vector>

#include "harness/data.h"
#include "harness/query.h"
#include "harness/report.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

/// A 6-row recipes table with hand-picked values:
///   row  cuisine  calories  protein  cost
///    0   thai       500      30      5
///    1   thai       600      40      9
///    2   greek      400      50      4
///    3   thai       300      10      2
///    4   thai       700      45      8
///    5   thai       450      20      3
e2e::HTable Table() {
  e2e::HTable t = e2e::NewRecipes();
  const int cuisine[] = {0, 0, 5, 0, 0, 0};  // thai = 0, greek = 5
  const double cal[] = {500, 600, 400, 300, 700, 450};
  const double protein[] = {30, 40, 50, 10, 45, 20};
  const double cost[] = {5, 9, 4, 2, 8, 3};
  for (size_t r = 0; r < 6; ++r) {
    for (size_t c = 0; c < t.cols.size(); ++c) {
      if (t.cols[c].type == e2e::ColType::kString) {
        t.code[c].push_back(
            static_cast<uint16_t>(t.cols[c].name == "cuisine" ? cuisine[r] : 0));
        continue;
      }
      double v = 1.0;
      if (t.cols[c].name == "calories") v = cal[r];
      if (t.cols[c].name == "protein") v = protein[r];
      if (t.cols[c].name == "cost") v = cost[r];
      if (t.cols[c].name == "id") v = static_cast<double>(r);
      t.num[c].push_back(v);
    }
    ++t.rows;
  }
  return t;
}

/// WHERE cuisine = 'thai' SUCH THAT COUNT(*) = 2 AND SUM(cost) <= 12
/// MAXIMIZE SUM(protein). Thai rows are 0, 1, 3, 4 and 5; the best pair
/// within the cost budget is {4, 5} (cost 11, protein 65).
e2e::QuerySpec Query(const e2e::HTable& t) {
  e2e::QuerySpec q;
  q.table = &t;
  e2e::Pred thai;
  thai.col = t.Col("cuisine");
  thai.code = 0;
  q.where = {thai};
  q.such_that = {{-1, 2, 2}, {t.Col("cost"), -e2e::kInf, 12}};
  q.objective = t.Col("protein");
  return q;
}

e2e::Answer Pkg(std::vector<size_t> rows, double objective, size_t cands = 5) {
  e2e::Answer a;
  a.rows = rows;
  a.mult.assign(rows.size(), 1);
  a.objective = objective;
  a.num_candidates = cands;
  return a;
}

}  // namespace

int main() {
  const e2e::HTable t = Table();
  const e2e::QuerySpec q = Query(t);
  const std::vector<size_t> cands = e2e::Candidates(q, t.rows);
  Expect(cands == std::vector<size_t>({0, 1, 3, 4, 5}), "candidates");
  Expect(q.Paql() ==
             "SELECT PACKAGE(R) FROM recipes R WHERE R.cuisine = 'thai' "
             "SUCH THAT COUNT(*) = 2 AND SUM(R.cost) <= 12 "
             "MAXIMIZE SUM(R.protein)",
         "rendered PaQL: " + q.Paql());

  // The optimum passes every check.
  Expect(e2e::CheckAnswer(q, cands, Pkg({4, 5}, 65)).empty(), "valid package");
  // A row failing WHERE (row 2 is greek).
  Expect(!e2e::CheckAnswer(q, cands, Pkg({2, 5}, 70)).empty(),
         "row failing WHERE accepted");
  // A violated SUM bound (cost 9 + 8 = 17 > 12).
  Expect(!e2e::CheckAnswer(q, cands, Pkg({1, 4}, 85)).empty(),
         "violated SUM bound accepted");
  // A violated COUNT.
  Expect(!e2e::CheckAnswer(q, cands, Pkg({4}, 45)).empty(),
         "violated COUNT accepted");
  // A wrong objective for a valid package.
  Expect(!e2e::CheckAnswer(q, cands, Pkg({4, 5}, 66)).empty(),
         "wrong objective accepted");
  // A wrong candidate count.
  Expect(!e2e::CheckAnswer(q, cands, Pkg({4, 5}, 65, 4)).empty(),
         "wrong num_candidates accepted");
  // REPEAT: a row twice without REPEAT.
  e2e::Answer twice = Pkg({5}, 40);
  twice.mult = {2};
  Expect(!e2e::CheckAnswer(q, cands, twice).empty(), "repeated row accepted");

  // Exhaustive optimum and the sub-optimal package it rejects.
  const auto opt = e2e::ExhaustiveOptimum(q, cands, 1e6);
  Expect(opt && *opt == 65, "exhaustive optimum");
  {
    e2e::AnswerChecker checker;
    Expect(!checker.Check(q, q.Paql(), t.rows, Pkg({0, 5}, 50), true, false)
                .empty(),
           "sub-optimal 'proven' package accepted");
  }
  {
    e2e::AnswerChecker checker;
    Expect(checker.Check(q, q.Paql(), t.rows, Pkg({4, 5}, 65), true, false)
               .empty(),
           "optimal package rejected");
    // A cache hit must return a package some miss returned.
    Expect(checker.Check(q, q.Paql(), t.rows, Pkg({0, 5}, 50), false, true)
               .empty(),
           "valid approximate hit rejected");
    Expect(checker.CheckCacheHits().size() == 1,
           "cache hit with a package no miss returned accepted");
  }

  // The upper bound: no package beats it, and it is not trivially loose
  // with the best multiplier.
  const double lambda = e2e::BestMultiplier(q, cands);
  const double bound = e2e::UpperBoundAt(q, cands, lambda);
  Expect(bound >= 65 - 1e-9, "bound below the optimum");
  Expect(bound <= e2e::UpperBoundAt(q, cands, 0.0) + 1e-9,
         "best multiplier worse than none");
  {
    e2e::AnswerChecker checker;
    // A package whose objective exceeds the bound cannot be right: it
    // must already fail the package checks (here, the cost bound).
    Expect(!checker.Check(q, q.Paql(), t.rows, Pkg({1, 4}, 85), false, false)
                .empty(),
           "objective above the bound accepted");
  }

  if (failures == 0) std::printf("checks_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
