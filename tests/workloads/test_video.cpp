#include "workloads/video.hpp"

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <vector>

namespace tlc::workloads {
namespace {

using std::chrono::seconds;

struct Capture {
  std::vector<net::Packet> packets;
  EmitFn fn() {
    return [this](net::Packet p) { packets.push_back(std::move(p)); };
  }
  [[nodiscard]] Bytes total() const {
    Bytes b;
    for (const auto& p : packets) b += p.size;
    return b;
  }
};

/// One paper rate. gtest_discover_tests names each case by the printed
/// parameter; PrintTo prints `name`, so the ctest ID is
/// `.../webcam_rtsp`, not the config's raw bytes (padding included).
struct PaperRate {
  const char* name;
  VideoStreamConfig config;
  double expected_mbps;
};

void PrintTo(const PaperRate& rate, std::ostream* os) { *os << rate.name; }

class VideoRateSweep : public ::testing::TestWithParam<PaperRate> {};

TEST_P(VideoRateSweep, LongRunRateMatchesConfig) {
  const PaperRate& rate = GetParam();
  sim::Scheduler sched;
  Capture cap;
  VideoStreamSource src{sched, rate.config, Rng{1}, cap.fn()};
  src.start(kTimeZero + seconds{120});
  sched.run();
  const double mbps = cap.total().as_double() * 8.0 / 120.0 / 1e6;
  EXPECT_NEAR(mbps, rate.expected_mbps, rate.expected_mbps * 0.08);
  EXPECT_EQ(src.bytes_emitted(), cap.total());
}

INSTANTIATE_TEST_SUITE_P(
    PaperRates, VideoRateSweep,
    ::testing::Values(
        PaperRate{"webcam_rtsp", VideoStreamConfig::webcam_rtsp(), 0.77},
        PaperRate{"webcam_udp", VideoStreamConfig::webcam_udp(), 1.73},
        PaperRate{"vridge_gvsp", VideoStreamConfig::vridge_gvsp(), 9.0}));

TEST(VideoStream, FrameCadenceMatchesFps) {
  sim::Scheduler sched;
  Capture cap;
  VideoStreamSource src{sched, VideoStreamConfig::webcam_udp(), Rng{2},
                        cap.fn()};
  src.start(kTimeZero + seconds{10});
  sched.run();
  EXPECT_NEAR(static_cast<double>(src.frames_emitted()), 300.0, 2.0);
}

TEST(VideoStream, FragmentsToMtu) {
  sim::Scheduler sched;
  Capture cap;
  VideoStreamSource src{sched, VideoStreamConfig::vridge_gvsp(), Rng{3},
                        cap.fn()};
  src.start(kTimeZero + seconds{2});
  sched.run();
  ASSERT_FALSE(cap.packets.empty());
  for (const auto& p : cap.packets) {
    EXPECT_LE(p.size.count(), kMtuPayload);
    EXPECT_GT(p.size.count(), 0u);
  }
}

TEST(VideoStream, IFramesAreLarger) {
  VideoStreamConfig cfg = VideoStreamConfig::webcam_udp();
  cfg.frame_jitter = 0.0;  // isolate the GoP structure
  sim::Scheduler sched;
  Capture cap;
  VideoStreamSource src{sched, cfg, Rng{4}, cap.fn()};
  src.start(kTimeZero + seconds{4});
  sched.run();
  // Group packet bytes by frame (app_seq).
  std::map<std::uint64_t, std::uint64_t> frame_bytes;
  for (const auto& p : cap.packets) frame_bytes[p.app_seq] += p.size.count();
  const std::uint64_t iframe = frame_bytes.at(0);   // first of GoP
  const std::uint64_t pframe = frame_bytes.at(1);
  EXPECT_NEAR(static_cast<double>(iframe) / static_cast<double>(pframe),
              cfg.iframe_scale, 0.3);
}

TEST(VideoStream, DirectionAndQciPropagate) {
  sim::Scheduler sched;
  Capture cap;
  VideoStreamSource src{sched, VideoStreamConfig::vridge_gvsp(), Rng{5},
                        cap.fn()};
  src.start(kTimeZero + seconds{1});
  sched.run();
  for (const auto& p : cap.packets) {
    EXPECT_EQ(p.direction, charging::Direction::kDownlink);
    EXPECT_EQ(p.qci, net::Qci::kQci9);
  }
}

TEST(VideoStream, PacketIdsAreUnique) {
  sim::Scheduler sched;
  Capture cap;
  VideoStreamSource src{sched, VideoStreamConfig::webcam_udp(), Rng{6},
                        cap.fn()};
  src.start(kTimeZero + seconds{5});
  sched.run();
  std::set<std::uint64_t> ids;
  for (const auto& p : cap.packets) ids.insert(p.id);
  EXPECT_EQ(ids.size(), cap.packets.size());
}

TEST(VideoStream, StopsAtDeadline) {
  sim::Scheduler sched;
  Capture cap;
  VideoStreamSource src{sched, VideoStreamConfig::webcam_udp(), Rng{7},
                        cap.fn()};
  src.start(kTimeZero + seconds{1});
  sched.run();
  for (const auto& p : cap.packets) {
    EXPECT_LT(p.created, kTimeZero + seconds{1});
  }
}

TEST(VideoStream, StartTwiceThrows) {
  sim::Scheduler sched;
  Capture cap;
  VideoStreamSource src{sched, VideoStreamConfig::webcam_udp(), Rng{8},
                        cap.fn()};
  src.start(kTimeZero + seconds{1});
  EXPECT_THROW(src.start(kTimeZero + seconds{2}), std::logic_error);
}

TEST(AdaptiveRate, DisabledByDefault) {
  sim::Scheduler sched;
  Capture cap;
  VideoStreamSource src{sched, VideoStreamConfig::webcam_udp(), Rng{9},
                        cap.fn()};
  src.on_receiver_report(0.5);
  EXPECT_DOUBLE_EQ(src.rate_fraction(), 1.0);
}

TEST(AdaptiveRate, BacksOffUnderReportedLoss) {
  sim::Scheduler sched;
  Capture cap;
  VideoStreamConfig cfg = VideoStreamConfig::webcam_rtsp();
  cfg.adaptive = true;
  VideoStreamSource src{sched, cfg, Rng{9}, cap.fn()};
  src.on_receiver_report(0.10);
  EXPECT_NEAR(src.rate_fraction(), 0.75, 1e-9);
  src.on_receiver_report(0.10);
  EXPECT_NEAR(src.rate_fraction(), 0.5625, 1e-9);
}

TEST(AdaptiveRate, RecoversWhenClean) {
  sim::Scheduler sched;
  Capture cap;
  VideoStreamConfig cfg = VideoStreamConfig::webcam_rtsp();
  cfg.adaptive = true;
  VideoStreamSource src{sched, cfg, Rng{9}, cap.fn()};
  src.on_receiver_report(0.10);
  const double backed_off = src.rate_fraction();
  src.on_receiver_report(0.0);
  EXPECT_GT(src.rate_fraction(), backed_off);
}

TEST(AdaptiveRate, ClampedToFloorAndNominal) {
  sim::Scheduler sched;
  Capture cap;
  VideoStreamConfig cfg = VideoStreamConfig::webcam_rtsp();
  cfg.adaptive = true;
  VideoStreamSource src{sched, cfg, Rng{9}, cap.fn()};
  for (int i = 0; i < 50; ++i) src.on_receiver_report(0.5);
  EXPECT_DOUBLE_EQ(src.rate_fraction(), cfg.min_rate_fraction);
  for (int i = 0; i < 100; ++i) src.on_receiver_report(0.0);
  EXPECT_DOUBLE_EQ(src.rate_fraction(), 1.0);
}

TEST(AdaptiveRate, ReducesEmittedVolumeUnderLossFeedbackLoop) {
  // Closed loop: a lossy link feeds RTCP-style reports back every second;
  // the adaptive stream sends measurably less than the oblivious one.
  const auto run = [](bool adaptive) {
    sim::Scheduler sched;
    Rng rng{4};
    VideoStreamConfig cfg = VideoStreamConfig::webcam_rtsp();
    cfg.adaptive = adaptive;
    std::uint64_t sent_bytes = 0;
    std::uint64_t lost_bytes = 0;
    VideoStreamSource* src_ptr = nullptr;
    VideoStreamSource src{sched, cfg, Rng{5},
                          [&](net::Packet p) {
                            sent_bytes += p.size.count();
                            if (rng.chance(0.15)) {
                              lost_bytes += p.size.count();
                            }
                          }};
    src_ptr = &src;
    // Periodic receiver reports.
    std::uint64_t window_sent = 0;
    std::uint64_t window_lost = 0;
    std::function<void()> report = [&] {
      const std::uint64_t ds = sent_bytes - window_sent;
      const std::uint64_t dl = lost_bytes - window_lost;
      window_sent = sent_bytes;
      window_lost = lost_bytes;
      if (ds > 0) {
        src_ptr->on_receiver_report(static_cast<double>(dl) /
                                    static_cast<double>(ds));
      }
      if (sched.now() < kTimeZero + std::chrono::seconds{59}) {
        sched.schedule_after(std::chrono::seconds{1}, report);
      }
    };
    sched.schedule_after(std::chrono::seconds{1}, report);
    src.start(kTimeZero + std::chrono::seconds{60});
    sched.run();
    return sent_bytes;
  };
  const std::uint64_t oblivious = run(false);
  const std::uint64_t adaptive = run(true);
  EXPECT_LT(adaptive, oblivious * 2 / 3);  // sustained 15% loss → floor-ish
}

TEST(VideoStream, RejectsBadConfig) {
  sim::Scheduler sched;
  VideoStreamConfig cfg;
  cfg.fps = 0.0;
  EXPECT_THROW((VideoStreamSource{sched, cfg, Rng{1}, [](net::Packet) {}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tlc::workloads
