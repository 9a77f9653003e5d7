// The serve flight recorder: line render/parse round-trips, the bounded
// in-memory ring, persistence with seq continuity across recorder
// generations (torn tails tolerated, oversized files compacted), the
// /events JSON delta shape — and the ManualClock contract of the
// heartbeat-age tracker that feeds /status and the per-shard gauges.
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "serve/flight.h"
#include "serve/introspect.h"

namespace hdiff::serve {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const fs::path dir = fs::temp_directory_path() /
                       ("hdiff-flight-test-" + std::to_string(::getpid()) +
                        "-" + tag + "-" + std::to_string(counter++));
  fs::remove_all(dir);
  return dir.string();
}

std::size_t file_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) ++n;
  return n;
}

// ---- line format ----------------------------------------------------------

TEST(FlightEventLine, RenderParseRoundTrip) {
  FlightEvent event;
  event.seq = 42;
  event.ts_ms = 123456;
  event.kind = "worker_death";
  event.round = 3;
  event.shard = 1;
  event.detail = "consecutive 2, with spaces\nand a newline";
  FlightEvent back;
  ASSERT_TRUE(parse_flight_event(render_flight_event(event), &back));
  EXPECT_EQ(back.seq, event.seq);
  EXPECT_EQ(back.ts_ms, event.ts_ms);
  EXPECT_EQ(back.kind, event.kind);
  EXPECT_EQ(back.round, event.round);
  EXPECT_EQ(back.shard, event.shard);
  EXPECT_EQ(back.detail, event.detail);

  // Maximum values, and parse then render is the identity on the line.
  FlightEvent max;
  max.seq = std::numeric_limits<std::uint64_t>::max();
  max.ts_ms = std::numeric_limits<std::uint64_t>::max();
  max.kind = "spawn";
  max.round = 0;
  max.shard = FlightEvent::kNone - 1;
  const std::string line = render_flight_event(max);
  ASSERT_TRUE(parse_flight_event(line, &back)) << line;
  EXPECT_EQ(back.seq, max.seq);
  EXPECT_EQ(back.ts_ms, max.ts_ms);
  EXPECT_EQ(back.round, 0u);
  EXPECT_EQ(back.shard, max.shard);
  EXPECT_EQ(render_flight_event(back), line);
}

TEST(FlightEventLine, NoneIndicesAndEmptyDetailRoundTrip) {
  FlightEvent event;
  event.seq = 1;
  event.kind = "drain";
  FlightEvent back;
  ASSERT_TRUE(parse_flight_event(render_flight_event(event), &back));
  EXPECT_EQ(back.round, FlightEvent::kNone);
  EXPECT_EQ(back.shard, FlightEvent::kNone);
  EXPECT_TRUE(back.detail.empty());
}

TEST(FlightEventLine, MalformedLinesAreRejected) {
  FlightEvent out;
  EXPECT_FALSE(parse_flight_event("", &out));
  EXPECT_FALSE(parse_flight_event("garbage", &out));
  EXPECT_FALSE(parse_flight_event("ev=", &out));
  EXPECT_FALSE(parse_flight_event("ev=1 2 6b696e64 -", &out));  // 4 tokens
  // seq 0 is reserved (a parse of zero also means "no number here").
  FlightEvent zero;
  zero.kind = "x";
  EXPECT_FALSE(parse_flight_event(render_flight_event(zero), &out));
  // A torn tail: any strict prefix of a valid line must not parse.
  FlightEvent event;
  event.seq = 7;
  event.kind = "spawn";
  event.detail = "pid 1234";
  const std::string full = render_flight_event(event);
  for (std::size_t len = 0; len < full.size(); ++len) {
    FlightEvent torn;
    if (parse_flight_event(full.substr(0, len), &torn)) {
      // A prefix that still has 6 decodable tokens may parse; it must then
      // at least carry the correct seq (hex-encoded fields reject torn
      // bytes, so only whole-token truncation can slip through).
      EXPECT_EQ(torn.seq, event.seq) << "prefix len " << len;
    }
  }
}

// ---- ring + persistence ---------------------------------------------------

TEST(FlightRecorder, RingIsBoundedAndSinceFilters) {
  const std::string dir = fresh_dir("ring");
  FlightRecorder recorder(dir, nullptr, 4);
  recorder.load();
  for (int i = 0; i < 10; ++i) {
    recorder.record("round_commit", static_cast<std::size_t>(i));
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.next_seq(), 11u);
  const std::vector<FlightEvent> all = recorder.events_since(0);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all.front().seq, 7u);  // oldest surviving
  EXPECT_EQ(all.back().seq, 10u);
  // since is exclusive: seq > since.
  EXPECT_EQ(recorder.events_since(8).size(), 2u);
  EXPECT_EQ(recorder.events_since(10).size(), 0u);
  fs::remove_all(dir);
}

TEST(FlightRecorder, SeqContinuesAcrossGenerations) {
  const std::string dir = fresh_dir("gen");
  {
    FlightRecorder first(dir);
    first.load();
    first.record("start");
    first.record("spawn", 0, 1, "pid 100");
    first.record("drain", 1);
  }
  FlightRecorder second(dir);
  second.load();
  EXPECT_EQ(second.next_seq(), 4u);
  EXPECT_EQ(second.size(), 3u);
  second.record("resume", 1);
  const std::vector<FlightEvent> events = second.events_since(0);
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 1);  // strictly increasing, no reuse
  }
  EXPECT_EQ(events.back().kind, "resume");
  fs::remove_all(dir);
}

TEST(FlightRecorder, TornTailLineIsSkippedOnLoad) {
  const std::string dir = fresh_dir("torn");
  {
    FlightRecorder recorder(dir);
    recorder.load();
    recorder.record("start");
    recorder.record("spawn", 0, 0, "pid 42");
  }
  {
    // Simulate a crash mid-append: a partial final line.
    std::ofstream out(FlightRecorder::path(dir),
                      std::ios::binary | std::ios::app);
    out << "ev=3 999";  // no newline, not enough tokens
  }
  FlightRecorder recorder(dir);
  recorder.load();
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.next_seq(), 3u);  // the torn event never existed
  recorder.record("restart", 0, 0);
  EXPECT_EQ(recorder.events_since(0).back().seq, 3u);
  fs::remove_all(dir);
}

TEST(FlightRecorder, LoadCompactsAFileGrownFarPastCapacity) {
  const std::string dir = fresh_dir("compact");
  {
    FlightRecorder recorder(dir, nullptr, 2);
    recorder.load();
    for (int i = 0; i < 20; ++i) recorder.record("spawn", 0, 0);
  }
  EXPECT_EQ(file_lines(FlightRecorder::path(dir)), 20u);
  FlightRecorder recorder(dir, nullptr, 2);
  recorder.load();  // 20 lines > 4 * capacity: rewrites from the ring
  EXPECT_EQ(file_lines(FlightRecorder::path(dir)), 2u);
  EXPECT_EQ(recorder.next_seq(), 21u);  // numbering unaffected by compaction
  fs::remove_all(dir);
}

TEST(FlightRecorder, EventsJsonShape) {
  const std::string dir = fresh_dir("json");
  obs::ManualClock clock;
  clock.advance_us(5000);  // 5 ms
  FlightRecorder recorder(dir, &clock);
  recorder.load();
  recorder.record("start");
  recorder.record("spawn", 2, 1, "pid 77");

  const std::string all = recorder.events_json(0);
  EXPECT_NE(all.find("\"next_seq\":3"), std::string::npos) << all;
  EXPECT_NE(all.find("{\"seq\":1,\"ts_ms\":5,\"kind\":\"start\"}"),
            std::string::npos)
      << all;  // kNone round/shard and empty detail are omitted
  EXPECT_NE(all.find("{\"seq\":2,\"ts_ms\":5,\"kind\":\"spawn\",\"round\":2,"
                     "\"shard\":1,\"detail\":\"pid 77\"}"),
            std::string::npos)
      << all;
  // Delta poll: only events after the cursor.
  const std::string delta = recorder.events_json(1);
  EXPECT_EQ(delta.find("\"kind\":\"start\""), std::string::npos);
  EXPECT_NE(delta.find("\"kind\":\"spawn\""), std::string::npos);
  EXPECT_EQ(recorder.events_json(2).find("\"seq\""), std::string::npos);
  fs::remove_all(dir);
}

// ---- heartbeat tracker ----------------------------------------------------

TEST(HeartbeatTracker, AgeTracksTheInjectedClock) {
  obs::ManualClock clock;
  obs::Registry registry;
  HeartbeatTracker tracker(&registry, &clock, 2);

  // No beats yet: both shards report "no live worker".
  EXPECT_EQ(tracker.age_ms(0), -1);
  EXPECT_EQ(tracker.age_ms(1), -1);

  tracker.beat(0);
  EXPECT_EQ(tracker.age_ms(0), 0);
  clock.advance_us(2500);
  EXPECT_EQ(tracker.age_ms(0), 2);  // integer milliseconds
  EXPECT_EQ(tracker.age_ms(1), -1);

  tracker.beat(0);
  EXPECT_EQ(tracker.age_ms(0), 0);  // a beat resets the age

  clock.advance_us(7000);
  tracker.publish();
  const obs::Registry::Snapshot snap = registry.snapshot();
  std::int64_t shard0 = -99, shard1 = -99;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "hdiff_serve_heartbeat_age_ms{shard=\"0\"}") shard0 = value;
    if (name == "hdiff_serve_heartbeat_age_ms{shard=\"1\"}") shard1 = value;
  }
  EXPECT_EQ(shard0, 7);
  EXPECT_EQ(shard1, -1);

  tracker.clear(0);
  EXPECT_EQ(tracker.age_ms(0), -1);
  tracker.publish();
  for (const auto& [name, value] : registry.snapshot().gauges) {
    if (name == "hdiff_serve_heartbeat_age_ms{shard=\"0\"}") {
      EXPECT_EQ(value, -1);
    }
  }
}

TEST(HeartbeatTracker, WorksWithoutARegistry) {
  obs::ManualClock clock;
  HeartbeatTracker tracker(nullptr, &clock, 1);
  tracker.beat(0);
  clock.advance_us(3000);
  EXPECT_EQ(tracker.age_ms(0), 3);
  tracker.publish();  // must be a no-op, not a crash
}

}  // namespace
}  // namespace hdiff::serve
