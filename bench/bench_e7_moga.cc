// E7 — MOGA vs exhaustive subspace search (table).
//
// Paper claim (Section I): exhaustive search of the subspace lattice "is
// rather computationally demanding and totally infeasible when the
// dimensionality of data is high"; MOGA makes the search tractable. For
// dimensionalities where exhaustive search is still feasible we report
// whether MOGA finds the single sparsest subspace, how close its top-8's
// mean sparsity comes to the true optimum (quality ratio), and how many
// objective evaluations each method spends. Expected shape: top-1 always
// found and quality ratio near 1 with a sub-lattice evaluation budget whose
// advantage grows with phi. Beside the evaluation counts, each search's
// thread CPU time divided by its distinct evaluations (exhaustive / MOGA;
// the MOGA figure includes the NSGA-II bookkeeping) puts the sparsity
// kernel's cost beside how often it runs, and the heap allocations of one
// MOGA search (a counting operator new in this binary only) show what the
// search's bookkeeping costs beyond the kernel.

#include <time.h>

#include <cstdlib>
#include <new>

#include "bench/bench_util.h"
#include "common/math_util.h"
#include "eval/table.h"
#include "grid/partition.h"
#include "moga/moga_search.h"
#include "moga/objectives.h"
#include "subspace/subspace.h"

// Global operator new counts this thread's allocations while armed, so a
// row can report what one MOGA search allocates.
namespace {
thread_local bool t_count_allocations = false;
thread_local std::size_t t_allocations = 0;
}  // namespace

// Both sides out of line, so the compiler pairs neither an inlined malloc()
// nor an inlined free() with a new-expression (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (t_count_allocations) ++t_allocations;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace spot {
namespace {

double ThreadCpuUs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

void Run(bench::JsonReporter& reporter) {
  eval::Table table({"phi", "lattice size", "exhaustive evals", "MOGA evals",
                     "CPU us/eval (exh / MOGA)", "MOGA allocs/search",
                     "best-8 mean (exact)",
                     "best-8 mean (MOGA)", "top-1 hit"});
  const int kMaxDim = 3;
  const std::size_t kTopK = 8;

  for (int dims : {8, 10, 12, 14, 16}) {
    // Training batch with one planted projected outlier as the MOGA target.
    auto batch = bench::MakeTraining(dims, 500, /*concept=*/700 + dims);
    std::vector<double> outlier = batch.front();
    outlier[1] = 0.98;
    outlier[4] = 0.02;
    batch.push_back(outlier);
    const Partition part(dims, 5, 0.0, 1.0);

    // Exhaustive reference.
    BatchSparsityObjectives exact_obj(&part, &batch, {batch.size() - 1});
    const double exact_cpu0 = ThreadCpuUs();
    const auto truth = ExhaustiveTopSparse(&exact_obj, dims, kMaxDim, kTopK);
    const double exact_cpu_us = ThreadCpuUs() - exact_cpu0;
    const std::size_t exact_evals = exact_obj.evaluation_count();

    // MOGA with a fixed budget.
    BatchSparsityObjectives moga_obj(&part, &batch, {batch.size() - 1});
    Nsga2Config cfg;
    cfg.num_dims = dims;
    cfg.max_dimension = kMaxDim;
    cfg.population_size = 32;
    cfg.generations = 20;
    cfg.seed = 29;
    const double moga_cpu0 = ThreadCpuUs();
    t_allocations = 0;
    t_count_allocations = true;
    const auto found = FindTopSparse(&moga_obj, cfg, kTopK);
    t_count_allocations = false;
    const double moga_cpu_us = ThreadCpuUs() - moga_cpu0;
    const std::size_t moga_evals = moga_obj.evaluation_count();

    // Mean sparsity score (minimized) of the true top-8 vs MOGA's top-8:
    // close values mean MOGA's set is as sparse as the optimum. Exact
    // set-recall is meaningless here — many near-tied subspaces share the
    // optimum's score.
    auto mean_score = [](const std::vector<ScoredSubspace>& v) {
      double s = 0.0;
      for (const auto& ss : v) s += ss.score;
      return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    const bool top1 =
        !found.empty() && found.front().subspace == truth.front().subspace;

    table.AddRow(
        {eval::Table::Int(static_cast<std::uint64_t>(dims)),
         eval::Table::Int(LatticeSize(dims, kMaxDim)),
         eval::Table::Int(exact_evals), eval::Table::Int(moga_evals),
         eval::Table::Num(exact_cpu_us / static_cast<double>(exact_evals), 1) +
             " / " +
             eval::Table::Num(moga_cpu_us / static_cast<double>(moga_evals),
                              1),
         eval::Table::Int(t_allocations),
         eval::Table::Num(mean_score(truth), 4),
         eval::Table::Num(mean_score(found), 4),
         top1 ? "yes" : "no"});
  }
  reporter.Print(table, "E7: MOGA vs exhaustive lattice search (max dim 3)");
}

}  // namespace
}  // namespace spot

int main(int argc, char** argv) {
  spot::bench::JsonReporter reporter(argc, argv, "e7");
  spot::Run(reporter);
  return 0;
}
