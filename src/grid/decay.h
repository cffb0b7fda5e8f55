#ifndef SPOT_GRID_DECAY_H_
#define SPOT_GRID_DECAY_H_

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace spot {

class ByteReader;
class ByteWriter;

/// The paper's (omega, epsilon) window-based time model.
///
/// Each arriving point defines one tick. A point of age `a` ticks carries
/// weight `alpha^a`, where `alpha` is chosen so that the total weight of all
/// points that have slid out of a window of size `omega` never exceeds
/// `epsilon`:
///
///     sum_{a >= omega} alpha^a = alpha^omega / (1 - alpha) = epsilon.
///
/// This approximates a hard sliding window of size `omega` without keeping
/// any per-point data or historical snapshots — only the latest decayed
/// summaries are stored, and decay is applied lazily via tick stamps.
///
/// Every cell touch decays by alpha^age, so the model memoizes alpha^a for
/// the small ages that dominate (DESIGN.md Section 3.2). The table is built
/// once per model and shared, read-only, by every copy of it — each grid
/// holds a copy — so no grid carries its own table.
class DecayModel {
 public:
  /// Builds the model for a window of `omega` points and residual bound
  /// `epsilon` in (0, 1). Invalid arguments are clamped to sane values.
  DecayModel(std::uint64_t omega, double epsilon);

  /// A model with no decay (alpha = 1): an infinite landmark window.
  static DecayModel None();

  double alpha() const { return alpha_; }
  std::uint64_t omega() const { return omega_; }
  double epsilon() const { return epsilon_; }

  /// alpha^age: a table read for age < kPowersCached, else std::pow. Both
  /// give the bit pattern std::pow(alpha, age) gives.
  double WeightAtAge(std::uint64_t age) const {
    if (age < kPowersCached) return (*powers_)[age];
    if (alpha_ >= 1.0) return 1.0;
    return std::pow(alpha_, static_cast<double>(age));
  }

  /// Total steady-state window weight: sum_{a>=0} alpha^a = 1/(1-alpha)
  /// (infinite for the no-decay model; callers use it only for reporting).
  double SteadyStateWeight() const;

  /// Solves alpha^omega / (1 - alpha) = epsilon for alpha in (0,1) by
  /// bisection. Exposed for testing.
  static double SolveAlpha(std::uint64_t omega, double epsilon);

 private:
  /// Ages below this many ticks are table reads: 97.4% (probe-bound) to
  /// 98.4% (session-churn) of WeightAtAge calls on the benchmark's
  /// workloads. A 4096-entry table covers 99.7-99.9% but is 32 KiB per
  /// model, the size of a typical L1d, where this one is 2 KiB; in an
  /// in-process probe-bound A/B it read 4% lower, inside the run-to-run
  /// spread (median gap 0.5 us/pt, quartile spread 1.5 us/pt).
  static constexpr std::size_t kPowersCached = 256;
  using Powers = std::array<double, kPowersCached>;

  DecayModel() = default;

  /// The table of alpha^a for a < kPowersCached.
  static std::shared_ptr<const Powers> BuildPowers(double alpha);

  std::uint64_t omega_ = 0;
  double epsilon_ = 0.0;
  double alpha_ = 1.0;
  std::shared_ptr<const Powers> powers_;  // never null; read-only
};

/// Helper that maintains the decayed total weight of everything seen so far:
/// W(t) = sum_i alpha^(t - t_i). Advancing by one tick and adding the new
/// point is O(1).
class DecayedCounter {
 public:
  explicit DecayedCounter(const DecayModel& model) : model_(&model) {}

  /// Registers the arrival of one point at tick `tick` (ticks must be
  /// non-decreasing across calls).
  void Observe(std::uint64_t tick);

  /// Decayed total weight as of tick `tick`.
  double WeightAt(std::uint64_t tick) const;

  std::uint64_t last_tick() const { return last_tick_; }

  /// Checkpointing of the running weight (the model reference is supplied
  /// by the owner at construction and is not serialized).
  void SaveState(ByteWriter& w) const;
  bool LoadState(ByteReader& r);

 private:
  const DecayModel* model_;
  double weight_ = 0.0;
  std::uint64_t last_tick_ = 0;
  bool seen_any_ = false;
};

}  // namespace spot

#endif  // SPOT_GRID_DECAY_H_
