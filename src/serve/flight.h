// Flight recorder: a bounded ring of structured supervisor lifecycle
// events (spawn, death, hang-kill, restart, quarantine, round commit,
// drain) that survives supervisor restarts.
//
// Every event is appended to `<state-dir>/flight.events` as one line before
// it enters the in-memory ring, so the sequence numbering is continuous
// across daemon generations: a supervisor that crashed mid-round resumes
// numbering where its predecessor stopped, and `GET /events?since=<seq>`
// clients never see a seq go backwards.  The file is plain append (no
// tmp+rename per event — an event is worthless if it costs a rename); a
// torn final line from a crash is simply skipped on load, which at most
// loses the one event that was being written when the process died.  Load
// compacts the file back to ring capacity when restarts have let it grow.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.h"

namespace hdiff::serve {

struct FlightEvent {
  /// Strictly increasing across supervisor generations (persisted).
  std::uint64_t seq = 0;
  /// Milliseconds on the recorder's clock (monotonic by default; an
  /// injectable test clock makes event times deterministic).
  std::uint64_t ts_ms = 0;
  std::string kind;
  /// Round / shard the event concerns; kNone when not applicable.
  std::size_t round = kNone;
  std::size_t shard = kNone;
  std::string detail;

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
};

class FlightRecorder {
 public:
  /// `clock` is injectable for tests; null = steady clock.  Nothing is read
  /// or written until `load()` / the first `record()`.
  explicit FlightRecorder(std::string state_dir,
                          const obs::Clock* clock = nullptr,
                          std::size_t capacity = 1024);

  /// Replay the persisted file into the ring (keeping the newest
  /// `capacity` events) and resume sequence numbering after the highest
  /// seq seen.  Missing file = empty recorder; a torn tail line is
  /// skipped.  Compacts the file when it holds far more than `capacity`
  /// lines.  Call once, before the first record().
  void load();

  /// Append one event: persisted first, then ring-buffered.
  void record(std::string_view kind, std::size_t round = FlightEvent::kNone,
              std::size_t shard = FlightEvent::kNone,
              std::string_view detail = {});

  /// Events with seq > `since`, oldest first (ring contents only).
  std::vector<FlightEvent> events_since(std::uint64_t since) const;

  /// `{"next_seq":N,"events":[...]}` for GET /events?since=<seq>.  A
  /// client polls with the returned next_seq to receive only deltas.
  std::string events_json(std::uint64_t since) const;

  /// Seq the next recorded event will get.
  std::uint64_t next_seq() const noexcept { return next_seq_; }

  std::size_t size() const noexcept { return ring_.size(); }

  static std::string path(const std::string& state_dir);

 private:
  void append_line(const FlightEvent& event);

  std::string state_dir_;
  const obs::Clock* clock_;
  std::size_t capacity_;
  std::uint64_t next_seq_ = 1;
  std::deque<FlightEvent> ring_;
  std::ofstream out_;
};

/// One line of the persisted format, a headerless durable record
/// (core/record.h): `ev=<seq> <ts_ms> <kind-enc> <round|-> <shard|->
/// <detail-enc>`.  Exposed for tests.
std::string render_flight_event(const FlightEvent& event);
bool parse_flight_event(std::string_view line, FlightEvent* out);

}  // namespace hdiff::serve
