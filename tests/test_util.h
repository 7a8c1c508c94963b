// Shared helpers for the FVL test suite.

#ifndef FVL_TESTS_TEST_UTIL_H_
#define FVL_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "fvl/run/run.h"
#include "fvl/run/run_generator.h"
#include "fvl/util/boolean_matrix.h"
#include "fvl/util/check.h"

// Declares `lhs` from the value of a Result-returning expression. On an
// error the current test fails with the error's status and the enclosing
// void function returns; Result::value() would instead abort the whole test
// binary and leave every later test unrun. In a helper, check the caller
// side with ASSERT_NO_FATAL_FAILURE.
#define FVL_ASSERT_OK_AND_ASSIGN(lhs, ...)                                 \
  FVL_ASSERT_OK_AND_ASSIGN_IMPL_(FVL_TEST_CONCAT_(fvl_result_, __LINE__), \
                                 lhs, __VA_ARGS__)
#define FVL_ASSERT_OK_AND_ASSIGN_IMPL_(result, lhs, ...) \
  auto result = (__VA_ARGS__);                           \
  ASSERT_TRUE(result.ok()) << result.status().ToString(); \
  lhs = std::move(result).value()
#define FVL_TEST_CONCAT_(a, b) FVL_TEST_CONCAT_INNER_(a, b)
#define FVL_TEST_CONCAT_INNER_(a, b) a##b

namespace fvl::testing {

// Builds a matrix from rows like Mat({"101", "010"}).
inline BoolMatrix Mat(const std::vector<std::string>& rows) {
  int r = static_cast<int>(rows.size());
  int c = r > 0 ? static_cast<int>(rows[0].size()) : 0;
  BoolMatrix m(r, c);
  for (int i = 0; i < r; ++i) {
    FVL_CHECK(static_cast<int>(rows[i].size()) == c);
    for (int j = 0; j < c; ++j) {
      if (rows[i][j] == '1') m.Set(i, j);
    }
  }
  return m;
}

// Expands every remaining frontier instance with its cheapest terminating
// production (deterministic).
inline void CompleteRun(Run& run) {
  const Grammar& g = run.grammar();
  std::vector<int64_t> cost = MinCompletionItems(g);
  while (!run.IsComplete()) {
    int inst = run.Frontier().front();
    ModuleId type = run.instance(inst).type;
    ProductionId best = -1;
    int64_t best_cost = -1;
    for (ProductionId k : g.ProductionsOf(type)) {
      const Production& p = g.production(k);
      int64_t total = static_cast<int64_t>(p.rhs.edges.size());
      for (ModuleId member : p.rhs.members) total += cost[member];
      if (best == -1 || total < best_cost) {
        best = k;
        best_cost = total;
      }
    }
    run.Apply(inst, best);
  }
}

}  // namespace fvl::testing

#endif  // FVL_TESTS_TEST_UTIL_H_
