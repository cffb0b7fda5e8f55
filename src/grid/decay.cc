#include "grid/decay.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/bytes.h"

namespace spot {

DecayModel::DecayModel(std::uint64_t omega, double epsilon) {
  omega_ = std::max<std::uint64_t>(1, omega);
  epsilon_ = std::clamp(epsilon, 1e-12, 0.999999);
  alpha_ = SolveAlpha(omega_, epsilon_);
  powers_ = BuildPowers(alpha_);
}

DecayModel DecayModel::None() {
  DecayModel m;
  m.omega_ = 0;
  m.epsilon_ = 0.0;
  m.alpha_ = 1.0;
  m.powers_ = BuildPowers(m.alpha_);  // all ones: pow(1, a) == 1 exactly
  return m;
}

std::shared_ptr<const DecayModel::Powers> DecayModel::BuildPowers(
    double alpha) {
  auto powers = std::make_shared<Powers>();
  for (std::size_t a = 0; a < kPowersCached; ++a) {
    // The very call WeightAtAge makes for larger ages, so a table read and
    // a computed power never differ in a bit.
    (*powers)[a] = std::pow(alpha, static_cast<double>(a));
  }
  return powers;
}

double DecayModel::SteadyStateWeight() const {
  if (alpha_ >= 1.0) return std::numeric_limits<double>::infinity();
  return 1.0 / (1.0 - alpha_);
}

double DecayModel::SolveAlpha(std::uint64_t omega, double epsilon) {
  // f(alpha) = alpha^omega / (1 - alpha) - epsilon is strictly increasing on
  // (0, 1): numerator grows, denominator shrinks. Bisect.
  const double w = static_cast<double>(omega);
  auto f = [&](double a) {
    return std::exp(w * std::log(a)) / (1.0 - a) - epsilon;
  };
  double lo = 1e-9;
  double hi = 1.0 - 1e-12;
  if (f(hi) < 0.0) return hi;  // epsilon so large that no decay is needed
  if (f(lo) > 0.0) return lo;  // omega == tiny and epsilon tiny: max decay
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (f(mid) < 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

void DecayedCounter::Observe(std::uint64_t tick) {
  if (!seen_any_) {
    weight_ = 1.0;
    last_tick_ = tick;
    seen_any_ = true;
    return;
  }
  const std::uint64_t delta = tick >= last_tick_ ? tick - last_tick_ : 0;
  weight_ = weight_ * model_->WeightAtAge(delta) + 1.0;
  last_tick_ = tick;
}

double DecayedCounter::WeightAt(std::uint64_t tick) const {
  if (!seen_any_) return 0.0;
  const std::uint64_t delta = tick >= last_tick_ ? tick - last_tick_ : 0;
  return weight_ * model_->WeightAtAge(delta);
}

void DecayedCounter::SaveState(ByteWriter& w) const {
  w.F64(weight_);
  w.U64(last_tick_);
  w.Bool(seen_any_);
}

bool DecayedCounter::LoadState(ByteReader& r) {
  weight_ = r.F64();
  last_tick_ = r.U64();
  seen_any_ = r.Bool();
  return r.ok();
}

}  // namespace spot
