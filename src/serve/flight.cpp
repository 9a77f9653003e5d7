#include "serve/flight.h"

#include <filesystem>

#include "campaign/store.h"
#include "core/record.h"
#include "report/json.h"

namespace hdiff::serve {

namespace {

/// A round/shard field: "-" for kNone, else a decimal index.
bool index_field(const core::Record& line, std::size_t i, std::size_t* out) {
  if (line.field(i) != "-") return line.dec(i, out);
  *out = FlightEvent::kNone;
  return true;
}

/// The event on one `ev=` line; seq 0 is reserved.
bool event_of(const core::Record& line, FlightEvent* out) {
  *out = FlightEvent{};
  return line.key() == "ev" && line.size() == 6 && line.dec(0, &out->seq) &&
         out->seq != 0 && line.dec(1, &out->ts_ms) &&
         line.bytes(2, &out->kind) && index_field(line, 3, &out->round) &&
         index_field(line, 4, &out->shard) && line.bytes(5, &out->detail);
}

/// Append the event's `ev=` line.
void write_event(core::RecordWriter& w, const FlightEvent& event) {
  w.line("ev").dec(event.seq).dec(event.ts_ms).bytes(event.kind);
  for (std::size_t index : {event.round, event.shard}) {
    index == FlightEvent::kNone ? w.token("-") : w.dec(index);
  }
  w.bytes(event.detail);
}

}  // namespace

std::string render_flight_event(const FlightEvent& event) {
  core::RecordWriter w;
  write_event(w, event);
  std::string line = w.take();
  line.pop_back();  // the line alone, without its '\n'
  return line;
}

bool parse_flight_event(std::string_view line, FlightEvent* out) {
  core::Record record;
  if (record.parse(line)) return event_of(record, out);
  *out = FlightEvent{};
  return false;
}

FlightRecorder::FlightRecorder(std::string state_dir, const obs::Clock* clock,
                               std::size_t capacity)
    : state_dir_(std::move(state_dir)),
      clock_(clock ? clock : &obs::steady_clock_instance()),
      capacity_(capacity == 0 ? 1 : capacity) {}

std::string FlightRecorder::path(const std::string& state_dir) {
  return state_dir + "/flight.events";
}

void FlightRecorder::load() {
  std::string text;
  if (!core::read_file(path(state_dir_), &text)) return;
  // Headerless and append-only: a line torn by a crash (no final '\n', or
  // run into by the next generation's first append) is skipped, not fatal.
  core::RecordReader r(text);
  std::size_t file_lines = 0;
  while (!r.done()) {
    ++file_lines;
    FlightEvent event;
    if (!r.next() || !event_of(r.record(), &event)) continue;
    if (event.seq >= next_seq_) next_seq_ = event.seq + 1;
    ring_.push_back(std::move(event));
    if (ring_.size() > capacity_) ring_.pop_front();
  }
  // Restart churn grows the file unboundedly while the ring stays capped;
  // rewrite it from the ring once it is several rings deep.
  if (file_lines > 4 * capacity_) {
    core::RecordWriter w;
    for (const FlightEvent& event : ring_) write_event(w, event);
    campaign::write_file_atomic_durable(path(state_dir_), w.take());
  }
}

void FlightRecorder::append_line(const FlightEvent& event) {
  if (!out_.is_open()) {
    std::error_code ec;
    std::filesystem::create_directories(state_dir_, ec);
    out_.open(path(state_dir_), std::ios::binary | std::ios::app);
  }
  if (!out_.is_open()) return;  // state dir unwritable: ring still works
  core::RecordWriter w;
  write_event(w, event);
  out_ << w.take();
  out_.flush();
}

void FlightRecorder::record(std::string_view kind, std::size_t round,
                            std::size_t shard, std::string_view detail) {
  FlightEvent event;
  event.seq = next_seq_++;
  event.ts_ms = clock_->now_us() / 1000;
  event.kind.assign(kind);
  event.round = round;
  event.shard = shard;
  event.detail.assign(detail);
  append_line(event);
  ring_.push_back(std::move(event));
  if (ring_.size() > capacity_) ring_.pop_front();
}

std::vector<FlightEvent> FlightRecorder::events_since(
    std::uint64_t since) const {
  std::vector<FlightEvent> out;
  for (const FlightEvent& event : ring_) {
    if (event.seq > since) out.push_back(event);
  }
  return out;
}

std::string FlightRecorder::events_json(std::uint64_t since) const {
  std::string out = "{\"next_seq\":" + std::to_string(next_seq_) +
                    ",\"events\":[";
  bool first = true;
  for (const FlightEvent& event : ring_) {
    if (event.seq <= since) continue;
    if (!first) out += ",";
    first = false;
    out += "{\"seq\":" + std::to_string(event.seq) +
           ",\"ts_ms\":" + std::to_string(event.ts_ms) +
           ",\"kind\":" + report::json_string(event.kind);
    if (event.round != FlightEvent::kNone) {
      out += ",\"round\":" + std::to_string(event.round);
    }
    if (event.shard != FlightEvent::kNone) {
      out += ",\"shard\":" + std::to_string(event.shard);
    }
    if (!event.detail.empty()) {
      out += ",\"detail\":" + report::json_string(event.detail);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace hdiff::serve
