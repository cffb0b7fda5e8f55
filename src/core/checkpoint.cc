#include "core/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/bytes.h"
#include "common/log.h"
#include "core/detector.h"

namespace spot {

namespace {

// "SPOTCKP1" / "SPOTEND1" as little-endian u64s.
constexpr std::uint64_t kHeaderMagic = 0x31504B43544F5053ULL;
constexpr std::uint64_t kTrailerMagic = 0x31444E45544F5053ULL;
// v2 added topk_capacity to the config, feedback_rounds to the stats and
// the top-k retention section after the synapses; v3 appends the CRC-32
// of every earlier byte after the trailer; v4 drops the base-cell store,
// so the synapse section carries the total-weight counter where v3 had
// the base grid. Strict equality stays the rule: older images are
// rejected, not migrated.
constexpr std::uint8_t kFormatVersion = 4;
constexpr std::size_t kCrcBytes = 4;

}  // namespace

// ---------------------------------------------------------------- config --

namespace {

void WriteNsga2(ByteWriter& w, const Nsga2Config& c) {
  w.U32(static_cast<std::uint32_t>(c.num_dims));
  w.U32(static_cast<std::uint32_t>(c.max_dimension));
  w.U32(static_cast<std::uint32_t>(c.population_size));
  w.U32(static_cast<std::uint32_t>(c.generations));
  w.F64(c.crossover_prob);
  w.F64(c.mutation_prob);
  w.U64(c.seed);
}

void ReadNsga2(ByteReader& r, Nsga2Config* c) {
  c->num_dims = static_cast<int>(r.U32());
  c->max_dimension = static_cast<int>(r.U32());
  c->population_size = static_cast<int>(r.U32());
  c->generations = static_cast<int>(r.U32());
  c->crossover_prob = r.F64();
  c->mutation_prob = r.F64();
  c->seed = r.U64();
}

}  // namespace

void WriteConfigBinary(ByteWriter& w, const SpotConfig& c) {
  w.U64(c.omega);
  w.F64(c.epsilon);
  w.Bool(c.use_decay);
  w.U32(static_cast<std::uint32_t>(c.cells_per_dim));
  w.F64(c.partition_margin);
  w.F64(c.domain_lo);
  w.F64(c.domain_hi);
  w.U32(static_cast<std::uint32_t>(c.fs_max_dimension));
  w.U64(c.fs_cap);
  w.U64(c.cs_capacity);
  w.U64(c.os_capacity);
  w.F64(c.rd_threshold);
  w.F64(c.irsd_threshold);
  w.F64(c.fringe_factor);
  WriteNsga2(w, c.unsupervised.moga);
  w.U32(static_cast<std::uint32_t>(c.unsupervised.outlying_degree.num_runs));
  w.F64(c.unsupervised.outlying_degree.threshold);
  w.F64(c.unsupervised.outlying_degree.threshold_scale);
  w.U64(c.unsupervised.top_outlying_points);
  w.U64(c.unsupervised.top_subspaces_per_run);
  WriteNsga2(w, c.supervised.moga);
  w.U64(c.supervised.top_subspaces_per_example);
  w.U64(c.evolution_period);
  w.U64(c.evolution.offspring);
  w.U64(c.evolution.parent_pool);
  w.F64(c.evolution.mutation_prob);
  w.U32(static_cast<std::uint32_t>(c.evolution.max_dimension));
  w.U64(c.reservoir_capacity);
  w.U64(c.os_update_every);
  w.Bool(c.drift_detection);
  w.F64(c.drift_delta);
  w.F64(c.drift_lambda);
  w.Bool(c.relearn_on_drift);
  w.F64(c.prune_threshold);
  w.U64(c.compaction_period);
  w.U64(c.topk_capacity);
  w.U64(c.num_shards);
  w.U64(c.seed);
}

bool ReadConfigBinary(ByteReader& r, SpotConfig* config) {
  SpotConfig c;
  c.omega = r.U64();
  c.epsilon = r.F64();
  c.use_decay = r.Bool();
  c.cells_per_dim = static_cast<int>(r.U32());
  c.partition_margin = r.F64();
  c.domain_lo = r.F64();
  c.domain_hi = r.F64();
  c.fs_max_dimension = static_cast<int>(r.U32());
  c.fs_cap = r.U64();
  c.cs_capacity = r.U64();
  c.os_capacity = r.U64();
  c.rd_threshold = r.F64();
  c.irsd_threshold = r.F64();
  c.fringe_factor = r.F64();
  ReadNsga2(r, &c.unsupervised.moga);
  c.unsupervised.outlying_degree.num_runs = static_cast<int>(r.U32());
  c.unsupervised.outlying_degree.threshold = r.F64();
  c.unsupervised.outlying_degree.threshold_scale = r.F64();
  c.unsupervised.top_outlying_points = r.U64();
  c.unsupervised.top_subspaces_per_run = r.U64();
  ReadNsga2(r, &c.supervised.moga);
  c.supervised.top_subspaces_per_example = r.U64();
  c.evolution_period = r.U64();
  c.evolution.offspring = r.U64();
  c.evolution.parent_pool = r.U64();
  c.evolution.mutation_prob = r.F64();
  c.evolution.max_dimension = static_cast<int>(r.U32());
  c.reservoir_capacity = r.U64();
  c.os_update_every = r.U64();
  c.drift_detection = r.Bool();
  c.drift_delta = r.F64();
  c.drift_lambda = r.F64();
  c.relearn_on_drift = r.Bool();
  c.prune_threshold = r.F64();
  c.compaction_period = r.U64();
  c.topk_capacity = r.U64();
  c.num_shards = r.U64();
  c.seed = r.U64();
  if (!r.ok()) return false;
  *config = c;
  return true;
}

// -------------------------------------------------------------- detector --

std::string SpotDetector::SaveState(std::size_t capacity) const {
  ByteWriter w(capacity);
  w.U64(kHeaderMagic);
  w.U8(kFormatVersion);
  WriteConfigBinary(w, config_);
  w.Bool(learned());
  if (learned()) {
    // Partition (lo/hi as raw bit patterns: reconstruction is exact even
    // for a FitToData partition).
    const Partition& p = synapses_->partition();
    w.U32(static_cast<std::uint32_t>(p.num_dims()));
    w.U32(static_cast<std::uint32_t>(p.cells_per_dim()));
    for (int d = 0; d < p.num_dims(); ++d) w.F64(p.lo(d));
    for (int d = 0; d < p.num_dims(); ++d) w.F64(p.hi(d));

    w.U64(tick_);
    w.U64(outliers_since_os_update_);

    // All deterministic SpotStats counters. detection_seconds is
    // deliberately NOT part of the image: it is a wall-clock measurement
    // of the saving process, not detector state — two detectors in
    // bit-identical states would serialize differently through it, and a
    // restored process should measure its own timing from zero.
    w.U64(stats_.points_processed);
    w.U64(stats_.outliers_detected);
    w.U64(stats_.evolution_rounds);
    w.U64(stats_.os_growth_runs);
    w.U64(stats_.drifts_detected);
    w.U64(stats_.feedback_rounds);
    w.U64(stats_.batches_processed);

    rng_.SaveState(w);
    reservoir_.SaveState(w);
    drift_.SaveState(w);
    sst_.SaveState(w);
    synapses_->SaveState(w);
    topk_.SaveState(w);
  }
  w.U64(kTrailerMagic);
  w.U32(Crc32(w.bytes().data(), w.bytes().size()));
  return w.Take();
}

bool SpotDetector::LoadState(const std::string& image) {
  // Tear the current state down first: a failed load must leave the
  // detector unlearned, never half-restored.
  synapses_.reset();
  topk_.Clear();
  stats_ = SpotStats{};
  tick_ = 0;
  outliers_since_os_update_ = 0;

  // The CRC seals every byte before it: check it before parsing anything,
  // so a flipped bit is refused instead of loading a detector whose
  // verdicts silently differ. The parse must then end where the CRC
  // begins.
  if (image.size() < kCrcBytes) return false;
  const std::size_t body = image.size() - kCrcBytes;
  ByteReader crc(image.data() + body, kCrcBytes);
  if (crc.U32() != Crc32(image.data(), body)) return false;
  ByteReader r(image.data(), body);

  if (r.U64() != kHeaderMagic) return r.Fail();
  if (r.U8() != kFormatVersion) return r.Fail();

  SpotConfig config;
  if (!ReadConfigBinary(r, &config)) return false;
  if (!config.Validate().empty()) return r.Fail();
  config_ = config;
  config_.num_shards = config_.num_shards == 0 ? 1 : config_.num_shards;

  // Re-seat the config-derived members exactly as the constructor would;
  // their checkpointed state (when learned) overwrites this below.
  rng_ = Rng(config_.seed);
  sst_ = Sst(config_.cs_capacity, config_.os_capacity);
  reservoir_ = ReservoirSample(config_.reservoir_capacity,
                               config_.seed ^ 0xABCDEF);
  topk_ = TopKOutliers(config_.topk_capacity, Decay(config_));
  drift_ = PageHinkley(config_.drift_delta, config_.drift_lambda);

  const bool was_learned = r.Bool();
  if (was_learned) {
    const std::uint32_t num_dims = r.U32();
    const std::uint32_t cells_per_dim = r.U32();
    if (!r.ok() || num_dims == 0 ||
        num_dims > static_cast<std::uint32_t>(Subspace::kMaxDimensions) ||
        cells_per_dim != static_cast<std::uint32_t>(config_.cells_per_dim)) {
      return r.Fail();
    }
    std::vector<double> lo(num_dims);
    std::vector<double> hi(num_dims);
    for (double& v : lo) v = r.F64();
    for (double& v : hi) v = r.F64();
    if (!r.ok()) return false;
    Partition partition(std::move(lo), std::move(hi),
                        static_cast<int>(cells_per_dim));

    tick_ = r.U64();
    outliers_since_os_update_ = r.U64();

    stats_.points_processed = r.U64();
    stats_.outliers_detected = r.U64();
    stats_.evolution_rounds = r.U64();
    stats_.os_growth_runs = r.U64();
    stats_.drifts_detected = r.U64();
    stats_.feedback_rounds = r.U64();
    stats_.batches_processed = r.U64();

    if (!rng_.LoadState(r) ||
        !reservoir_.LoadState(r, static_cast<std::size_t>(num_dims)) ||
        !drift_.LoadState(r) || !sst_.LoadState(r)) {
      return false;
    }
    // Every SST subspace must retain only attributes the partition has:
    // SyncTrackedSubspaces hands these to ProjectedGrid constructors,
    // which index partition bounds by retained dimension.
    const std::uint64_t valid_mask =
        num_dims >= 64 ? ~0ULL : ((1ULL << num_dims) - 1);
    for (const Subspace& s : sst_.AllSubspaces()) {
      if ((s.bits() & ~valid_mask) != 0) return r.Fail();
    }

    synapses_ = std::make_unique<SynapseManager>(
        std::move(partition), Decay(config_), config_.prune_threshold,
        config_.compaction_period);
    if (!synapses_->LoadState(r) || !topk_.LoadState(r)) {
      synapses_.reset();
      return false;
    }
  }

  if (r.U64() != kTrailerMagic || !r.AtEnd()) {
    synapses_.reset();
    return r.Fail();
  }

  // The sink outlives restores (it belongs to the serving layer, not the
  // checkpoint). Re-seat it on the rebuilt members; the restore itself is
  // silent — LoadState paths bypass Track()/Add*() by construction.
  set_event_sink(event_sink_);
  reservoir_replacements_ = 0;
  return true;
}

namespace {

/// Writes `bytes` to `path` (created or truncated) in one write. False,
/// with the cause logged, when the open, any write or the close fails.
bool WriteFile(const std::string& path, const std::string& bytes) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    SPOT_LOG(Error) << "cannot open checkpoint file " << path << ": "
                    << std::strerror(errno);
    return false;
  }
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      SPOT_LOG(Error) << "checkpoint write to " << path << " failed: "
                      << std::strerror(n < 0 ? errno : EIO);
      ::close(fd);
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  if (::close(fd) != 0) {
    SPOT_LOG(Error) << "checkpoint close of " << path << " failed: "
                    << std::strerror(errno);
    return false;
  }
  return true;
}

/// Reads the whole file at `path` into `out` in one exact-size read.
bool ReadFile(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st;
  bool ok = ::fstat(fd, &st) == 0;
  if (ok) {
    out->resize(static_cast<std::size_t>(st.st_size));
    std::size_t done = 0;
    while (done < out->size()) {
      const ssize_t n = ::read(fd, &(*out)[done], out->size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      done += static_cast<std::size_t>(n);
    }
    ok = done == out->size();
  }
  ::close(fd);
  return ok;
}

}  // namespace

bool SaveCheckpointFile(const SpotDetector& detector,
                        const std::string& path) {
  // Reserve the buffer at the size of the image this save replaces plus
  // 1/8: a buffer grown by doubling holds up to twice the image, and
  // images still grow between saves, so one byte past an exact
  // reservation doubles it too. On the session-churn benchmark, against
  // streaming the image to the file in small writes, an exact reservation
  // raised peak RSS by 4.3-7.4% and the 1/8 headroom by 0.5-1.6% (three
  // runs each).
  struct stat previous;
  const std::size_t capacity =
      ::stat(path.c_str(), &previous) == 0
          ? static_cast<std::size_t>(previous.st_size) / 8 * 9
          : 0;
  const std::string image = detector.SaveState(capacity);
  const std::string tmp = path + ".tmp";
  if (!WriteFile(tmp, image)) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    SPOT_LOG(Error) << "cannot rename " << tmp << " to " << path;
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool LoadCheckpointFile(SpotDetector* detector, const std::string& path) {
  std::string image;
  if (!ReadFile(path, &image)) return false;
  return detector->LoadState(image);
}

}  // namespace spot
