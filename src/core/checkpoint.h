#ifndef SPOT_CORE_CHECKPOINT_H_
#define SPOT_CORE_CHECKPOINT_H_

#include <string>

namespace spot {

class ByteReader;
class ByteWriter;
class SpotDetector;
struct SpotConfig;

/// Binary full-state checkpointing of a SpotDetector (DESIGN.md Section 4.3).
///
/// The checkpoint persists *everything*: config (including the nested
/// learning configs), partition, SST, the decayed total stream weight,
/// every projected grid cell, the reservoir, the drift statistic, the RNG
/// stream and all tick/cadence counters — such that
///
///     image = A.SaveState(); B.LoadState(image); B.Process(stream...)
///
/// yields verdicts and stats bit-identical to A processing the same stream
/// uninterrupted (tests/checkpoint_test.cc proves it across evolution,
/// drift, compaction and shard-count boundaries). This is also the on-disk
/// eviction format of the SpotService session manager (src/service/), and
/// it turns the paper's "bounded state" claim for the (omega, epsilon)
/// time model into a number you can measure with `ls -l`.
///
/// Format: the image is built in memory with the library's one codec
/// (common/bytes.h: little-endian fixed-width fields, doubles as raw
/// IEEE-754 bit patterns, so state round-trips exactly) behind the magic
/// "SPOTCKP1" and a version byte, closed by the trailer "SPOTEND1" and the
/// CRC-32 of every earlier byte. The loader checks the CRC before parsing
/// anything, so a truncated or bit-flipped image is refused outright.
/// Versioning rule: readers reject versions they do not know, and any
/// layout change bumps it — there are no optional fields or skippable
/// sections inside a version.

/// Serializes every field of a SpotConfig, including the nested learning
/// configs (MOGA budgets, outlying-degree knobs, self-evolution knobs).
void WriteConfigBinary(ByteWriter& w, const SpotConfig& config);

/// Mirrors WriteConfigBinary. Returns false (failing the reader) on a
/// malformed section.
bool ReadConfigBinary(ByteReader& r, SpotConfig* config);

/// File wrappers around SpotDetector::SaveState / LoadState.
/// SaveCheckpointFile writes the image to `path + ".tmp"` in one write and
/// renames it into place, so a crash mid-write never clobbers the previous
/// checkpoint; a failed write or close fails the save and removes the temp
/// file. LoadCheckpointFile reads the file in one exact-size read and
/// leaves the detector untouched when the file cannot be read.
bool SaveCheckpointFile(const SpotDetector& detector, const std::string& path);
bool LoadCheckpointFile(SpotDetector* detector, const std::string& path);

}  // namespace spot

#endif  // SPOT_CORE_CHECKPOINT_H_
