#ifndef SPOT_OBS_JOURNAL_H_
#define SPOT_OBS_JOURNAL_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/detector_events.h"
#include "obs/ring.h"

namespace spot::obs {

/// One journaled event: the detector-level payload plus the journal's own
/// global sequence number and the session the event came from.
struct JournalEntry {
  std::uint64_t seq = 0;
  std::uint32_t session = 0;  // index into Journal's interned session names
  DetectorEvent event;
};

/// Bounded ring of detector events for a service's sessions.
///
/// The journal answers "what did the engine decide, and when" — subspace
/// churn, evolution and OS-growth rounds, drift hits, reservoir turnover,
/// grid compactions, checkpoint/evict/reload lifecycle — without touching
/// the per-point hot path: events are emitted only from the rare state
/// transitions (DESIGN.md Section 10), so an unsinked detector pays one
/// pointer test per transition and nothing per point. The events live in
/// an obs::Ring, so the reactor appends while an exporter thread renders.
class Journal {
 public:
  explicit Journal(std::size_t capacity);

  /// Interns a session name, returning the index Append() takes. Names are
  /// never evicted (sessions are few and long-lived); re-interning an
  /// existing name returns its original index.
  std::uint32_t InternSession(const std::string& name);

  /// Appends one event for session `session` (an InternSession index),
  /// assigning the next global sequence number. Overwrites the oldest
  /// entry when full.
  void Append(std::uint32_t session, const DetectorEvent& event);

  /// The retained window, oldest first, with ascending seq.
  std::vector<JournalEntry> Snapshot() const;

  /// Events overwritten before any snapshot could retain them.
  std::uint64_t dropped() const { return ring_.dropped(); }

  /// Total events ever appended (retained + dropped).
  std::uint64_t appended() const { return ring_.appended(); }

  std::size_t capacity() const { return ring_.capacity(); }

  /// Session name for an InternSession index ("?" if out of range).
  std::string SessionName(std::uint32_t index) const;

  /// The whole journal as a JSON object:
  ///   {"capacity":N,"appended":N,"dropped":N,
  ///    "events":[{"seq":..,"session":"..","kind":"..","tick":..,
  ///               "subspace":"{0,3}","a":..,"value":..}, ...]}
  /// Events are oldest-first. `subspace` is omitted when empty (counter
  /// and lifecycle events carry no subspace).
  std::string RenderJson() const;

 private:
  /// Entries carry no seq here: an entry's seq is its position in append
  /// order, which Snapshot reads off the ring.
  Ring<JournalEntry> ring_;
  mutable std::mutex mu_;  // guards sessions_
  std::vector<std::string> sessions_;
};

/// DetectorEventSink adapter binding one session of a Journal: hand one to
/// SpotDetector::set_event_sink and every engine event lands in the ring
/// tagged with that session. Copyable and cheap; must not outlive the
/// journal.
class JournalSink : public DetectorEventSink {
 public:
  JournalSink(Journal* journal, std::uint32_t session)
      : journal_(journal), session_(session) {}

  void OnDetectorEvent(const DetectorEvent& event) override {
    journal_->Append(session_, event);
  }

  std::uint32_t session() const { return session_; }

 private:
  Journal* journal_;
  std::uint32_t session_;
};

}  // namespace spot::obs

#endif  // SPOT_OBS_JOURNAL_H_
