#include "server/vod_server.h"

#include <gtest/gtest.h>

#include "sim/random.h"

namespace vod {
namespace {

DhbConfig small_config(int n) {
  DhbConfig c;
  c.num_segments = n;
  return c;
}

TEST(VodServer, SessionLifecycle) {
  VodServer server(small_config(4));
  server.advance_slot();
  const auto id = server.start();
  EXPECT_EQ(server.session(id).state, VodServer::SessionState::kWatching);
  EXPECT_EQ(server.session(id).next_segment, 1);
  EXPECT_EQ(server.active_sessions(), 1);
  // Four slots of watching finish the video.
  for (int k = 0; k < 4; ++k) server.advance_slot();
  EXPECT_EQ(server.session(id).state, VodServer::SessionState::kFinished);
  EXPECT_EQ(server.active_sessions(), 0);
  EXPECT_TRUE(server.session(id).playout_ok);
}

TEST(VodServer, TransmissionsMatchFigure4) {
  VodServer server(small_config(6));
  server.advance_slot();
  server.start();
  for (Segment j = 1; j <= 6; ++j) {
    const auto tx = server.advance_slot();
    ASSERT_EQ(tx.size(), 1u);
    EXPECT_EQ(tx[0].segment, j);
    EXPECT_EQ(tx[0].channel, 0);
  }
  EXPECT_EQ(server.total_transmissions(), 6u);
  EXPECT_EQ(server.peak_channels(), 1);
}

TEST(VodServer, ChannelsAreDistinctPerSlot) {
  VodServer server(small_config(10));
  Rng rng(3);
  for (int step = 0; step < 100; ++step) {
    const auto tx = server.advance_slot();
    std::vector<int> channels;
    for (const auto& t : tx) channels.push_back(t.channel);
    std::sort(channels.begin(), channels.end());
    EXPECT_TRUE(std::adjacent_find(channels.begin(), channels.end()) ==
                channels.end());
    if (!channels.empty()) {
      EXPECT_EQ(channels.front(), 0);  // lowest channels first
      EXPECT_EQ(channels.back(), static_cast<int>(channels.size()) - 1);
    }
    for (uint64_t a = rng.poisson(0.7); a > 0; --a) server.start();
  }
  EXPECT_GE(server.peak_channels(), 1);
  EXPECT_LE(server.peak_channels(), 10);
}

TEST(VodServer, PauseStopsProgress) {
  VodServer server(small_config(8));
  server.advance_slot();
  const auto id = server.start();
  server.advance_slot();  // watched S1
  server.advance_slot();  // watched S2
  EXPECT_EQ(server.session(id).next_segment, 3);
  server.pause(id);
  for (int k = 0; k < 5; ++k) server.advance_slot();
  EXPECT_EQ(server.session(id).next_segment, 3);
  EXPECT_EQ(server.session(id).state, VodServer::SessionState::kPaused);
  EXPECT_EQ(server.active_sessions(), 1);  // paused counts as active
}

TEST(VodServer, ResumeContinuesFromNextSegment) {
  VodServer server(small_config(8));
  server.advance_slot();
  const auto id = server.start();
  server.advance_slot();
  server.advance_slot();  // watched S1, S2
  server.pause(id);
  for (int k = 0; k < 10; ++k) server.advance_slot();
  server.resume(id);
  EXPECT_EQ(server.session(id).state, VodServer::SessionState::kWatching);
  EXPECT_EQ(server.session(id).resumes, 1);
  // Six more slots to finish S3..S8.
  for (int k = 0; k < 6; ++k) server.advance_slot();
  EXPECT_EQ(server.session(id).state, VodServer::SessionState::kFinished);
  EXPECT_TRUE(server.session(id).playout_ok);
}

TEST(VodServer, ResumeAfterFullyWatchedFinishes) {
  VodServer server(small_config(3));
  server.advance_slot();
  const auto id = server.start();
  for (int k = 0; k < 2; ++k) server.advance_slot();
  // Watched S1, S2; pause just before the end, watch S3 via resume later.
  server.pause(id);
  server.resume(id);
  for (int k = 0; k < 1; ++k) server.advance_slot();
  EXPECT_EQ(server.session(id).state, VodServer::SessionState::kFinished);
}

TEST(VodServer, StopAbandonsSession) {
  VodServer server(small_config(5));
  server.advance_slot();
  const auto id = server.start();
  server.stop(id);
  EXPECT_EQ(server.session(id).state, VodServer::SessionState::kStopped);
  EXPECT_EQ(server.active_sessions(), 0);
  // Already-scheduled transmissions still happen (DHB never cancels).
  uint64_t tx = 0;
  for (int k = 0; k < 6; ++k) tx += server.advance_slot().size();
  EXPECT_EQ(tx, 5u);
}

TEST(VodServer, ManyClientsShareTransmissions) {
  VodServer server(small_config(12));
  server.advance_slot();
  for (int c = 0; c < 20; ++c) server.start();  // same slot: full sharing
  uint64_t tx = 0;
  for (int k = 0; k < 13; ++k) tx += server.advance_slot().size();
  EXPECT_EQ(tx, 12u);  // one instance per segment serves all twenty
  EXPECT_EQ(server.peak_channels(), 1);
}

TEST(VodServer, RandomizedVcrWorkloadStaysCorrect) {
  VodServer server(small_config(15));
  Rng rng(2024);
  std::vector<VodServer::ClientId> ids;
  for (int step = 0; step < 400; ++step) {
    server.advance_slot();
    if (rng.uniform() < 0.3) ids.push_back(server.start());
    if (!ids.empty() && rng.uniform() < 0.2) {
      const auto id = ids[rng.uniform_index(ids.size())];
      const auto state = server.session(id).state;
      if (state == VodServer::SessionState::kWatching) {
        server.pause(id);
      } else if (state == VodServer::SessionState::kPaused) {
        server.resume(id);
      }
    }
  }
  for (const auto id : ids) {
    EXPECT_TRUE(server.session(id).playout_ok) << id;
  }
}

// Regression for the determinism contract (DESIGN.md §8/§11): the session
// table is a std::map precisely so that advance_slot()'s walk is
// id-ordered — an unordered_map here once made the walk order an artifact
// of hash-table internals. The golden FNV-1a checksum over a seeded VCR
// workload pins the full externally visible behavior bit-for-bit; any
// order-dependent walk sneaking back in shows up as a checksum change on
// some platform or standard-library version.
TEST(VodServer, DeterministicWorkloadChecksum) {
  constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
  constexpr uint64_t kFnvPrime = 1099511628211ULL;
  auto mix = [](uint64_t h, uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((v >> (8 * byte)) & 0xff)) * kFnvPrime;
    }
    return h;
  };

  auto run_workload = [&mix] {
    VodServer server(small_config(12));
    Rng rng(99);
    std::vector<VodServer::ClientId> ids;
    uint64_t h = kFnvOffset;
    for (int step = 0; step < 250; ++step) {
      for (const auto& t : server.advance_slot()) {
        h = mix(h, static_cast<uint64_t>(t.channel));
        h = mix(h, static_cast<uint64_t>(t.segment));
      }
      if (rng.uniform() < 0.35) ids.push_back(server.start());
      if (!ids.empty() && rng.uniform() < 0.25) {
        const auto id = ids[rng.uniform_index(ids.size())];
        switch (server.session(id).state) {
          case VodServer::SessionState::kWatching:
            if (rng.uniform() < 0.2) {
              server.stop(id);
            } else {
              server.pause(id);
            }
            break;
          case VodServer::SessionState::kPaused:
            server.resume(id);
            break;
          default:
            break;
        }
      }
      h = mix(h, static_cast<uint64_t>(server.active_sessions()));
      h = mix(h, static_cast<uint64_t>(server.channels_in_use()));
    }
    for (const auto id : ids) {
      const auto& info = server.session(id);
      h = mix(h, static_cast<uint64_t>(info.state));
      h = mix(h, static_cast<uint64_t>(info.next_segment));
      h = mix(h, static_cast<uint64_t>(info.resumes));
      h = mix(h, info.playout_ok ? 1u : 0u);
    }
    return h;
  };

  const uint64_t checksum = run_workload();
  EXPECT_EQ(checksum, run_workload());          // repeatable in-process
  EXPECT_EQ(checksum, 0x4660ca4b92f5f328ULL);   // and bit-identical everywhere
}

TEST(VodServerDeath, InvalidOperations) {
  VodServer server(small_config(4));
  server.advance_slot();
  EXPECT_DEATH(server.pause(12345), "unknown session");
  const auto id = server.start();
  EXPECT_DEATH(server.resume(id), "paused");
  server.pause(id);
  EXPECT_DEATH(server.pause(id), "watching");
  // A session that watched to the end did not abandon: stop() refuses it,
  // and a stopped session cannot stop again.
  VodServer short_video(small_config(3));
  short_video.advance_slot();
  const auto finished = short_video.start();
  for (int slot = 0; slot < 4; ++slot) short_video.advance_slot();
  ASSERT_EQ(short_video.session(finished).state,
            VodServer::SessionState::kFinished);
  EXPECT_DEATH(short_video.stop(finished), "watching or paused");
  server.stop(id);
  EXPECT_DEATH(server.stop(id), "watching or paused");
}

}  // namespace
}  // namespace vod
