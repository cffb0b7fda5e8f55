#include "core/drift_detector.h"

#include <algorithm>

#include "common/bytes.h"

namespace spot {

PageHinkley::PageHinkley(double delta, double lambda)
    : delta_(delta), lambda_(lambda) {}

bool PageHinkley::Add(double x) {
  ++count_;
  mean_ += (x - mean_) / static_cast<double>(count_);
  m_ += x - mean_ - delta_;
  m_min_ = std::min(m_min_, m_);
  if (m_ - m_min_ > lambda_) {
    ++drifts_;
    const std::uint64_t keep = drifts_;
    Reset();
    drifts_ = keep;
    return true;
  }
  return false;
}

void PageHinkley::Reset() {
  mean_ = 0.0;
  m_ = 0.0;
  m_min_ = 0.0;
  count_ = 0;
}

void PageHinkley::SaveState(ByteWriter& w) const {
  w.F64(delta_);
  w.F64(lambda_);
  w.F64(mean_);
  w.F64(m_);
  w.F64(m_min_);
  w.U64(count_);
  w.U64(drifts_);
}

bool PageHinkley::LoadState(ByteReader& r) {
  delta_ = r.F64();
  lambda_ = r.F64();
  mean_ = r.F64();
  m_ = r.F64();
  m_min_ = r.F64();
  count_ = r.U64();
  drifts_ = r.U64();
  return r.ok();
}

}  // namespace spot
