#include "grid/bcs.h"

#include <cmath>

#include "common/bytes.h"

namespace spot {

Bcs::Bcs(int num_dims)
    : ls_(static_cast<std::size_t>(num_dims), 0.0),
      ss_(static_cast<std::size_t>(num_dims), 0.0) {}

void Bcs::Add(const std::vector<double>& point, std::uint64_t tick,
              const DecayModel& model) {
  if (ls_.empty()) {
    ls_.assign(point.size(), 0.0);
    ss_.assign(point.size(), 0.0);
  }
  DecayTo(tick, model);
  count_ += 1.0;
  for (std::size_t d = 0; d < point.size() && d < ls_.size(); ++d) {
    ls_[d] += point[d];
    ss_[d] += point[d] * point[d];
  }
}

void Bcs::DecayTo(std::uint64_t tick, const DecayModel& model) {
  if (tick <= last_tick_) {
    last_tick_ = tick > last_tick_ ? tick : last_tick_;
    return;
  }
  const double factor = model.WeightAtAge(tick - last_tick_);
  if (factor != 1.0) {
    count_ *= factor;
    for (double& v : ls_) v *= factor;
    for (double& v : ss_) v *= factor;
  }
  last_tick_ = tick;
}

void Bcs::Merge(const Bcs& other, std::uint64_t tick, const DecayModel& model) {
  Bcs aligned = other;
  aligned.DecayTo(tick, model);
  DecayTo(tick, model);
  if (ls_.empty()) {
    ls_.assign(aligned.ls_.size(), 0.0);
    ss_.assign(aligned.ss_.size(), 0.0);
  }
  count_ += aligned.count_;
  for (std::size_t d = 0; d < ls_.size() && d < aligned.ls_.size(); ++d) {
    ls_[d] += aligned.ls_[d];
    ss_[d] += aligned.ss_[d];
  }
}

double Bcs::CountAt(std::uint64_t tick, const DecayModel& model) const {
  if (tick <= last_tick_) return count_;
  return count_ * model.WeightAtAge(tick - last_tick_);
}

void Bcs::SaveState(ByteWriter& w) const {
  w.F64(count_);
  w.U64(last_tick_);
  w.U64(ls_.size());
  for (double v : ls_) w.F64(v);
  for (double v : ss_) w.F64(v);
}

bool Bcs::LoadState(ByteReader& r) {
  count_ = r.F64();
  last_tick_ = r.U64();
  const std::uint64_t dims = r.U64();
  if (dims > (1u << 20)) return r.Fail();
  ls_.resize(static_cast<std::size_t>(dims));
  ss_.resize(static_cast<std::size_t>(dims));
  for (double& v : ls_) v = r.F64();
  for (double& v : ss_) v = r.F64();
  return r.ok();
}

double Bcs::MeanOf(int dim) const {
  if (count_ <= 0.0) return 0.0;
  return ls_[static_cast<std::size_t>(dim)] / count_;
}

double Bcs::StdDevOf(int dim) const {
  if (count_ < 2.0) return 0.0;
  const std::size_t d = static_cast<std::size_t>(dim);
  const double mean = ls_[d] / count_;
  const double var = ss_[d] / count_ - mean * mean;
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

}  // namespace spot
