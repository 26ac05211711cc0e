// Unit tests for the structured trace sink: ring wraparound, prefix
// queries on read, JSONL output, and deterministic ordering when the
// scheduler dispatches events at identical timestamps.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/scheduler.hpp"

namespace tlc::obs {
namespace {

TEST(TraceSink, RecordsEventsWithFields) {
  TraceSink sink;
  sink.emit("net.dl", "drop",
            {field("cause", "radio-loss"), field("bytes", Bytes{1200})});
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].component, "net.dl");
  EXPECT_EQ(events[0].event, "drop");
  ASSERT_EQ(events[0].fields.size(), 2u);
  EXPECT_EQ(events[0].fields[0].key, "cause");
  EXPECT_EQ(events[0].fields[0].value, "radio-loss");
  EXPECT_TRUE(events[0].fields[0].quoted);
  EXPECT_EQ(events[0].fields[1].value, "1200");
  EXPECT_FALSE(events[0].fields[1].quoted);
}

TEST(TraceSink, RingOverwritesOldestBeyondCapacity) {
  static_assert(TraceSink::kRingSlots == 64);
  TraceSink sink;
  for (std::uint64_t i = 0; i < 70; ++i) {
    sink.emit("c", "e" + std::to_string(i), {field("i", i)});
    EXPECT_EQ(sink.events().size(), std::min<std::uint64_t>(i + 1, 64))
        << "after e" << i;
  }
  EXPECT_EQ(sink.emitted(), 70u);
  EXPECT_EQ(sink.overwritten(), 6u);
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 64u);
  // Oldest → newest, with the first six overwritten.
  EXPECT_EQ(events[0].event, "e6");
  EXPECT_EQ(events[63].event, "e69");
  EXPECT_EQ(events[63].fields[0].value, "69");
  // Sequence numbers reflect global emission order, not ring position.
  EXPECT_EQ(events[0].seq, 6u);
  EXPECT_EQ(events[63].seq, 69u);
  EXPECT_TRUE(TraceSink{}.events().empty());
}

TEST(TraceSink, EventsQueryFiltersByPrefix) {
  TraceSink sink;
  sink.emit("net.dl", "a");
  sink.emit("net.ul", "b");
  sink.emit("epc.gw", "c");
  EXPECT_EQ(sink.events("net.").size(), 2u);
  EXPECT_EQ(sink.events("epc.gw").size(), 1u);
  EXPECT_EQ(sink.events().size(), 3u);
}

TEST(TraceSink, ClockStampsEvents) {
  TraceSink sink;
  TimePoint now = kTimeZero + std::chrono::milliseconds{250};
  sink.set_clock([&now] { return now; });
  sink.emit("c", "e");
  now += std::chrono::seconds{1};
  sink.emit("c", "e2");
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].sim_time - kTimeZero, std::chrono::milliseconds{250});
  EXPECT_EQ(events[1].sim_time - kTimeZero, std::chrono::milliseconds{1250});
}

TEST(TraceSink, JsonlLineShapeAndEscaping) {
  TraceSink sink;
  sink.set_clock([] { return kTimeZero + std::chrono::nanoseconds{1500}; });
  sink.emit("net.dl", "drop",
            {field("cause", "say \"hi\"\n"), field("ok", true),
             field("ratio", 0.5)});
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].to_jsonl(),
            "{\"t_ns\":1500,\"seq\":0,\"level\":\"info\","
            "\"component\":\"net.dl\",\"event\":\"drop\","
            "\"cause\":\"say \\\"hi\\\"\\n\",\"ok\":true,\"ratio\":0.5}");
}

// Exotic bytes — tabs, carriage returns, NULs, and other control bytes in
// keys or values — must escape to valid JSON, never raw bytes.
TEST(TraceSink, JsonlEscapesExoticBytes) {
  TraceSink sink;
  // Split literals keep the hex escapes from swallowing the next letter.
  const std::string exotic{"a\tb\rc\x01" "d\x1f e\b\f", 11};
  sink.emit("comp", "ev", {field(std::string_view{"k\ney", 4}, exotic)});
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].to_jsonl(),
            "{\"t_ns\":0,\"seq\":0,\"level\":\"info\","
            "\"component\":\"comp\",\"event\":\"ev\","
            "\"k\\ney\":\"a\\tb\\rc\\u0001d\\u001f e\\b\"}");
}

TEST(TraceSink, JsonlEscapesNulByte) {
  TraceSink sink;
  const std::string with_nul{"x\0y", 3};
  sink.emit(with_nul, "e");
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 1u);
  const std::string line = events[0].to_jsonl();
  EXPECT_NE(line.find("\\u0000"), std::string::npos);
  EXPECT_EQ(line.find('\0'), std::string::npos);
}

TEST(TraceSink, JsonlFileReceivesOneLinePerEvent) {
  const std::string path = ::testing::TempDir() + "trace_sink_test.jsonl";
  {
    TraceSink sink;
    ASSERT_TRUE(sink.open_jsonl(path));
    sink.emit("a", "one");
    sink.emit("b", "two");
    EXPECT_TRUE(sink.close_jsonl());
  }
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

// A full disk must not lose the trace silently: close_jsonl() reports any
// failed write or close, and a healthy file still reports success.
TEST(TraceSink, JsonlWriteFailureIsReported) {
  const auto write_to = [](const std::string& path) {
    TraceSink sink;
    if (!sink.open_jsonl(path)) return false;
    for (int i = 0; i < 1000; ++i) {
      sink.emit("net.dl", "drop", {field("i", i)});
    }
    return sink.close_jsonl();
  };
  const std::string ok_path = ::testing::TempDir() + "trace_sink_ok.jsonl";
  EXPECT_TRUE(write_to(ok_path));
  std::remove(ok_path.c_str());
  EXPECT_TRUE(TraceSink{}.close_jsonl());  // nothing attached: nothing lost

  std::FILE* full = std::fopen("/dev/full", "w");
  if (full == nullptr) GTEST_SKIP() << "/dev/full is not available";
  std::fclose(full);
  EXPECT_FALSE(write_to("/dev/full"));
}

// Two events scheduled at the same sim time must trace in a deterministic
// order: the scheduler breaks timestamp ties by insertion order, and the
// sink's seq numbers record emission order.
TEST(TraceSink, DeterministicOrderingUnderSchedulerTies) {
  const auto run = [] {
    sim::Scheduler sched;
    TraceSink sink;
    sink.set_clock([&sched] { return sched.now(); });
    const TimePoint t = kTimeZero + std::chrono::seconds{1};
    for (int i = 0; i < 5; ++i) {
      sched.schedule_at(t, [&sink, i] {
        sink.emit("tie", "fire", {field("i", i)});
      });
    }
    sched.run_until(t + std::chrono::seconds{1});
    std::ostringstream out;
    for (const auto& ev : sink.events()) out << ev.to_jsonl() << '\n';
    return out.str();
  };
  const std::string first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run());  // byte-identical across runs
}

}  // namespace
}  // namespace tlc::obs
