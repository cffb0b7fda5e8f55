#ifndef SPOT_CORE_CHECKPOINT_H_
#define SPOT_CORE_CHECKPOINT_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace spot {

class SpotDetector;
struct SpotConfig;

/// Binary full-state checkpointing of a SpotDetector (DESIGN.md Section 4.3).
///
/// The checkpoint persists *everything*: config (including the nested
/// learning configs), partition, SST, every BCS/PCS grid cell, the
/// reservoir, the drift statistic, the RNG stream and all tick/cadence
/// counters — such that
///
///     SaveCheckpoint(A); LoadCheckpoint(&B); B.Process(stream...)
///
/// yields verdicts and stats bit-identical to A processing the same stream
/// uninterrupted (tests/checkpoint_test.cc proves it across evolution,
/// drift, compaction and shard-count boundaries). This is also the on-disk
/// eviction format of the SpotService session manager (src/service/), and
/// it turns the paper's "bounded state" claim for the (omega, epsilon)
/// time model into a number you can measure with `ls -l`.
///
/// Format: little-endian, fixed-width fields behind the magic "SPOTCKP1",
/// closed by the trailer "SPOTEND1" (truncation detection). Doubles are
/// stored as raw IEEE-754 bit patterns, so state round-trips exactly.
/// Versioning rule: the final format byte is a version number; readers
/// reject versions they do not know, and any layout change bumps it —
/// there are no optional fields or skippable sections inside a version.

/// Little-endian binary writer over an ostream. All writes funnel through
/// U8/U64/F64 so the byte layout is defined in exactly one place.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(std::ostream* out) : out_(out) {}

  void U8(std::uint8_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  /// Raw IEEE-754 bit pattern: the value reloads bit-identically.
  void F64(double v);
  void Bool(bool v) { U8(v ? 1 : 0); }
  /// Length-prefixed byte string.
  void Str(const std::string& s);
  /// Length-prefixed u32 coordinate list (grid cell coordinates).
  void Coords(const std::vector<std::uint32_t>& c);

  bool ok() const;

 private:
  std::ostream* out_;
};

/// Little-endian binary reader mirroring CheckpointWriter. Every accessor
/// returns a neutral value once the stream fails or a validation check
/// trips; callers test ok() (or Fail()'s return) at section boundaries.
class CheckpointReader {
 public:
  explicit CheckpointReader(std::istream* in) : in_(in) {}

  std::uint8_t U8();
  std::uint32_t U32();
  std::uint64_t U64();
  double F64();
  bool Bool() { return U8() != 0; }
  std::string Str();
  std::vector<std::uint32_t> Coords();

  /// Marks the load as failed (validation error); always returns false so
  /// `return reader.Fail();` reads naturally in bool-returning loaders.
  bool Fail();

  bool ok() const;

 private:
  std::istream* in_;
  bool failed_ = false;
};

/// Serializes every field of a SpotConfig, including the nested learning
/// configs (MOGA budgets, outlying-degree knobs, self-evolution knobs).
void WriteConfigBinary(CheckpointWriter& w, const SpotConfig& config);

/// Mirrors WriteConfigBinary. Returns false (failing the reader) on a
/// malformed section.
bool ReadConfigBinary(CheckpointReader& r, SpotConfig* config);

/// Writes a complete detector checkpoint (header, config, full state,
/// trailer). Works for unlearned detectors too (the flag round-trips).
/// Returns false when the stream errors.
bool SaveCheckpoint(const SpotDetector& detector, std::ostream& out);

/// Restores a detector from a checkpoint stream. The detector's current
/// config is irrelevant: the checkpoint embeds the full config it was
/// saved under. On failure returns false and leaves the detector
/// *unlearned* (a partially applied state is never exposed).
bool LoadCheckpoint(SpotDetector* detector, std::istream& in);

/// File convenience wrappers. SaveCheckpointFile writes to `path + ".tmp"`
/// and renames into place, so a crash mid-write never clobbers the
/// previous checkpoint.
bool SaveCheckpointFile(const SpotDetector& detector, const std::string& path);
bool LoadCheckpointFile(SpotDetector* detector, const std::string& path);

}  // namespace spot

#endif  // SPOT_CORE_CHECKPOINT_H_
