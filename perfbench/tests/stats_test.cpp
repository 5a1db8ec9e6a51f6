// Tests of the driver's own statistics (src/stats.h): median, the
// tail-percentile rule, and failure accounting. The quartiles behind the
// spread rule are computed by spread.py and tested in spread_test.py.
#include "stats.h"

#include <cmath>
#include <cstdio>
#include <vector>

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_median() {
  CHECK(perfbench::median({}) == 0.0);
  CHECK(perfbench::median({7.0}) == 7.0);
  CHECK(near(perfbench::median({3.0, 1.0, 2.0}), 2.0));
  CHECK(near(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5));
}

void test_tail() {
  // 1000 samples: the 11th largest (990) with exactly ten beyond, p99.
  const perfbench::Tail t = perfbench::tail(one_to(1000));
  CHECK(t.resolved);
  CHECK(t.samples == 1000);
  CHECK(near(t.value, 990.0));
  CHECK(near(t.percentile, 99.0));
  // 11 samples: the smallest has ten beyond it.
  const perfbench::Tail small = perfbench::tail(one_to(11));
  CHECK(small.resolved);
  CHECK(near(small.value, 1.0));
  CHECK(near(small.percentile, 100.0 / 11.0));
  // 200 samples: p95 is the highest percentile with ten beyond.
  const perfbench::Tail p95 = perfbench::tail(one_to(200));
  CHECK(near(p95.value, 190.0));
  CHECK(near(p95.percentile, 95.0));
  // Ten or fewer: no such percentile, the maximum stands in.
  const perfbench::Tail few = perfbench::tail(one_to(10));
  CHECK(!few.resolved);
  CHECK(near(few.value, 10.0));
  CHECK(perfbench::tail({}).samples == 0);
}

void test_outcome() {
  perfbench::Outcome clean;
  clean.attempt(40);
  CHECK(clean.failed() == 0);
  CHECK(clean.failed_frac() == 0.0);

  perfbench::Outcome some;
  some.attempt(8);
  some.fail(2);
  CHECK(some.failed() == 2);
  CHECK(near(some.failed_frac(), 0.25));

  // Violations beyond the attempts (a frozen tenant that also drops and
  // tampers) cap at the attempt count, so the fraction stays a ratio.
  perfbench::Outcome capped;
  capped.attempt(3);
  capped.fail(5);
  CHECK(capped.failed() == 3);
  CHECK(near(capped.failed_frac(), 1.0));

  perfbench::Outcome none;
  CHECK(none.failed_frac() == 0.0);
}

}  // namespace

int main() {
  test_median();
  test_tail();
  test_outcome();
  if (g_failures == 0) std::printf("stats tests passed\n");
  return g_failures == 0 ? 0 : 1;
}
