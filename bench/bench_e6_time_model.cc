// E6 — (omega, epsilon) time-model fidelity (table).
//
// Paper claim (Section II-A): the model approximates a conventional sliding
// window of size omega with approximation factor epsilon, without storing
// per-point data. Decayed summaries approximate the window's *distribution*
// (total decayed mass is ~omega/ln(1/epsilon), not omega), so we compare
// each cell's share of the decayed mass against its share of an exact
// sliding window over the same drifting stream, and report the share error
// plus the memory footprint (values stored). Expected shape: share errors
// of a few percentage points throughout; the error grows mildly as epsilon
// tightens, because stronger decay weights the newest points more than the
// hard window's uniform weighting. Memory is O(populated cells) for the
// decayed summaries vs O(omega) raw values for the exact window.
//
// The decayed side is a 1-d ProjectedGrid, whose cells hold the paper's
// (count, LS, SS) triple, plus its own DecayedCounter for the total mass.

#include <cmath>
#include <deque>

#include "common/rng.h"
#include "bench/bench_util.h"
#include "eval/table.h"
#include "eval/metrics.h"
#include "grid/decay.h"
#include "grid/projected_grid.h"

namespace spot {
namespace {

void Run(bench::JsonReporter& reporter) {
  const std::uint64_t kOmega = 1000;
  const int kCells = 10;
  const std::size_t kStream = 20000;

  eval::Table table({"epsilon", "alpha", "mean share err (pp)",
                     "p95 share err (pp)", "decayed values stored",
                     "exact values stored"});

  for (double epsilon : {0.1, 0.01, 0.001}) {
    const DecayModel model(kOmega, epsilon);
    const Partition partition(1, kCells, 0.0, 1.0);
    ProjectedGrid grid(Subspace::FromIndices({0}), &partition, model, 1e-4, 0);
    DecayedCounter total_weight(model);
    std::deque<double> window;  // exact sliding window of raw values
    Rng rng(77);

    std::vector<double> rel_errors;
    for (std::size_t t = 0; t < kStream; ++t) {
      // Slowly moving mixture so cell occupancy changes over time.
      const double phase =
          0.25 + 0.5 * (static_cast<double>(t) / kStream);
      const double v = rng.NextBernoulli(0.7)
                           ? std::clamp(phase + 0.05 * rng.NextGaussian(),
                                        0.0, 0.999)
                           : rng.NextDouble();
      grid.Add({v}, t);
      total_weight.Observe(t);
      window.push_back(v);
      if (window.size() > kOmega) window.pop_front();

      if (t > kOmega && t % 500 == 0) {
        // Compare each cell's share of the decayed mass against its share
        // of the exact window.
        std::vector<double> exact(kCells, 0.0);
        for (double w : window) {
          exact[partition.IntervalIndex(0, w)] += 1.0;
        }
        const double total = total_weight.WeightAt(t);
        for (int c = 0; c < kCells; ++c) {
          const double count =
              grid.QueryCoords({static_cast<std::uint32_t>(c)}, total).count;
          const double decayed_share = total > 0.0 ? count / total : 0.0;
          const double exact_share =
              exact[c] / static_cast<double>(window.size());
          rel_errors.push_back(std::fabs(decayed_share - exact_share));
        }
      }
    }

    double sum = 0.0;
    for (double e : rel_errors) sum += e;
    const double mean =
        rel_errors.empty() ? 0.0 : sum / static_cast<double>(rel_errors.size());
    std::sort(rel_errors.begin(), rel_errors.end());
    const double p95 =
        rel_errors.empty()
            ? 0.0
            : rel_errors[static_cast<std::size_t>(0.95 *
                                                   (rel_errors.size() - 1))];

    // Memory proxy: decayed model stores (1 count + 2 sums) per populated
    // cell; the exact window stores omega raw values.
    const std::uint64_t decayed_values = grid.PopulatedCells() * 3;
    table.AddRow({eval::Table::Num(epsilon, 3),
                  eval::Table::Num(model.alpha(), 6),
                  eval::Table::Num(mean * 100.0, 3),
                  eval::Table::Num(p95 * 100.0, 3),
                  eval::Table::Int(decayed_values),
                  eval::Table::Int(kOmega)});
  }
  reporter.Print(table, "E6: (omega,epsilon)-model vs exact sliding window (omega=1000)");
}

}  // namespace
}  // namespace spot

int main(int argc, char** argv) {
  spot::bench::JsonReporter reporter(argc, argv, "e6");
  spot::Run(reporter);
  return 0;
}
