#include "obs/journal.h"

#include <cstdio>

#include "obs/exposition.h"

namespace spot::obs {
namespace {

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

}  // namespace

Journal::Journal(std::size_t capacity) : ring_(capacity) {}

std::uint32_t Journal::InternSession(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (sessions_[i] == name) return static_cast<std::uint32_t>(i);
  }
  sessions_.push_back(name);
  return static_cast<std::uint32_t>(sessions_.size() - 1);
}

void Journal::Append(std::uint32_t session, const DetectorEvent& event) {
  JournalEntry entry;
  entry.session = session;
  entry.event = event;
  ring_.Push(std::move(entry));
}

std::vector<JournalEntry> Journal::Snapshot() const {
  std::uint64_t seq = 0;
  std::vector<JournalEntry> out = ring_.Snapshot(&seq);
  for (JournalEntry& e : out) e.seq = seq++;
  return out;
}

std::string Journal::SessionName(std::uint32_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index < sessions_.size() ? sessions_[index] : std::string("?");
}

std::string Journal::RenderJson() const {
  // Copy under the locks, render outside them: ToString/formatting is the
  // expensive part and must not hold writers up.
  const std::vector<JournalEntry> events = Snapshot();
  // The oldest retained entry's seq counts the entries dropped before it.
  const std::uint64_t lost = events.empty() ? 0 : events.front().seq;
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names = sessions_;
  }

  std::string out;
  out.reserve(64 + events.size() * 96);
  out += "{\"capacity\":";
  out += std::to_string(capacity());
  out += ",\"appended\":";
  out += std::to_string(lost + events.size());
  out += ",\"dropped\":";
  out += std::to_string(lost);
  out += ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JournalEntry& e = events[i];
    if (i != 0) out.push_back(',');
    out += "{\"seq\":";
    out += std::to_string(e.seq);
    out += ",\"session\":";
    AppendJsonString(&out, e.session < names.size()
                               ? names[e.session]
                               : std::string("?"));
    out += ",\"kind\":";
    AppendJsonString(&out, DetectorEventKindName(e.event.kind));
    out += ",\"tick\":";
    out += std::to_string(e.event.tick);
    if (e.event.subspace.bits() != 0) {
      out += ",\"subspace\":";
      AppendJsonString(&out, e.event.subspace.ToString());
    }
    out += ",\"a\":";
    out += std::to_string(e.event.a);
    out += ",\"value\":";
    AppendDouble(&out, e.event.value);
    out.push_back('}');
  }
  out += "]}";
  return out;
}

}  // namespace spot::obs
