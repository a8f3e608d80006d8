#include "server/vod_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <vector>

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

// A slot's row is its channel layout: entry k of advance_slot() rides
// channel k. The paper's Figure 4: one request into the idle n = 6 video
// sends S1..S6 on channel 0, one a slot.
TEST(VodServer, TransmissionsMatchFigure4) {
  VodServer server(small_config(6));
  server.advance_slot();
  server.start();
  for (Segment j = 1; j <= 6; ++j) {
    const std::span<const Segment> tx = server.advance_slot();
    ASSERT_EQ(tx.size(), 1u);
    EXPECT_EQ(tx[0], j);
  }
  EXPECT_TRUE(server.advance_slot().empty());
  EXPECT_EQ(server.peak_channels(), 1);
}

// Figure 5: a second request during slot 3 shares S3..S6 with the first
// and opens channel 1 for its own S1 (slot 4) and S2 (slot 5), next to the
// first request's S3 and S4 on channel 0.
TEST(VodServer, TransmissionsMatchFigure5) {
  VodServer server(small_config(6));
  server.advance_slot();  // slot 1
  server.start();
  server.advance_slot();  // slot 2
  server.advance_slot();  // slot 3
  server.start();
  const std::vector<std::vector<Segment>> expected = {
      {3, 1}, {4, 2}, {5}, {6}, {}};  // slots 4..8, channel 0 first
  for (const std::vector<Segment>& row : expected) {
    const std::span<const Segment> tx = server.advance_slot();
    EXPECT_EQ(std::vector<Segment>(tx.begin(), tx.end()), row)
        << "slot " << server.current_slot();
  }
  EXPECT_EQ(server.peak_channels(), 2);
}

// Channels are distinct by construction (entry k rides channel k); the
// check is that no slot sends the same segment on two of them: a request
// shares the instance already in its window instead.
TEST(VodServer, ChannelsAreDistinctPerSlot) {
  VodServer server(small_config(10));
  Rng rng(3);
  for (int step = 0; step < 100; ++step) {
    const std::span<const Segment> tx = server.advance_slot();
    std::vector<Segment> segments(tx.begin(), tx.end());
    std::sort(segments.begin(), segments.end());
    EXPECT_TRUE(std::adjacent_find(segments.begin(), segments.end()) ==
                segments.end())
        << "slot " << server.current_slot();
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
  EXPECT_EQ(server.session(id).next_segment, 3);  // the last segment, n
  server.resume(id);
  EXPECT_EQ(server.session(id).state, VodServer::SessionState::kWatching);
  EXPECT_EQ(server.session(id).resumes, 1);
  for (int k = 0; k < 1; ++k) server.advance_slot();
  EXPECT_EQ(server.session(id).state, VodServer::SessionState::kFinished);
  EXPECT_EQ(server.session(id).next_segment, 4);
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

std::string fields(const VodServer::SessionInfo& s) {
  std::ostringstream os;
  os << "{state " << static_cast<int>(s.state) << ", next_segment "
     << s.next_segment << ", admitted_slot " << s.admitted_slot
     << ", playout_ok " << s.playout_ok << ", resumes " << s.resumes << "}";
  return os.str();
}

testing::AssertionResult same_session(const VodServer::SessionInfo& got,
                                      const VodServer::SessionInfo& want) {
  if (got.state == want.state && got.next_segment == want.next_segment &&
      got.admitted_slot == want.admitted_slot &&
      got.playout_ok == want.playout_ok && got.resumes == want.resumes) {
    return testing::AssertionSuccess();
  }
  return testing::AssertionFailure()
         << "got " << fields(got) << ", want " << fields(want);
}

// The stepped oracle for VodServer's clock-derived positions: the per-slot
// walk the closed form replaces. Every slot, each watching session admitted
// before the new current slot moves on one segment, and finishes once it
// passes segment n. Every (re-)admission is expected to meet its deadlines.
struct SteppedMirror {
  int n;
  std::vector<VodServer::SessionInfo> sessions;  // session id - 1 -> info

  void advance(Slot now) {
    for (VodServer::SessionInfo& info : sessions) {
      if (info.state != VodServer::SessionState::kWatching) continue;
      if (info.admitted_slot >= now) continue;
      ++info.next_segment;
      if (info.next_segment > n) {
        info.state = VodServer::SessionState::kFinished;
      }
    }
  }
  void start(Slot now) {
    VodServer::SessionInfo info;
    info.admitted_slot = now;
    sessions.push_back(info);
  }
  int active() const {
    int live = 0;
    for (const VodServer::SessionInfo& info : sessions) {
      if (info.state == VodServer::SessionState::kWatching ||
          info.state == VodServer::SessionState::kPaused) {
        ++live;
      }
    }
    return live;
  }
};

TEST(VodServer, ClosedFormMatchesSteppedMirror) {
  using State = VodServer::SessionState;
  for (const int n : {1, 2, 15, 99}) {
    SCOPED_TRACE(testing::Message() << "n = " << n);
    VodServer server(small_config(n));
    SteppedMirror mirror{n, {}};
    Rng rng(31);
    int pauses = 0, resumes = 0, stops = 0;

    // Every field of every session, and the live count, against the mirror.
    auto expect_matches = [&](int step) {
      ASSERT_EQ(server.session_ids().size(), mirror.sessions.size());
      for (VodServer::ClientId id = 1; id <= mirror.sessions.size(); ++id) {
        ASSERT_TRUE(same_session(server.session(id), mirror.sessions[id - 1]))
            << "session " << id << ", step " << step;
      }
      ASSERT_EQ(server.active_sessions(), mirror.active()) << "step " << step;
    };

    // One admission before the clock first moves, at slot 0.
    ASSERT_EQ(server.current_slot(), 0);
    server.start();
    mirror.start(0);
    ASSERT_NO_FATAL_FAILURE(expect_matches(-1));

    for (int step = 0; step < 300; ++step) {
      server.advance_slot();
      const Slot now = server.current_slot();
      mirror.advance(now);
      ASSERT_NO_FATAL_FAILURE(expect_matches(step));

      for (uint64_t op = rng.uniform_index(5); op > 0; --op) {
        const double roll = rng.uniform();
        if (roll < 0.3 || mirror.sessions.empty()) {
          server.start();
          mirror.start(now);
          continue;
        }
        const VodServer::ClientId id =
            1 + rng.uniform_index(mirror.sessions.size());
        VodServer::SessionInfo& want = mirror.sessions[id - 1];
        ASSERT_EQ(server.session(id).state, want.state) << "session " << id;
        if (want.state == State::kWatching && roll < 0.85) {
          server.pause(id);
          want.state = State::kPaused;
          ++pauses;
        } else if (want.state == State::kPaused && roll < 0.9) {
          server.resume(id);
          want.state = State::kWatching;
          want.admitted_slot = now;
          ++want.resumes;
          ++resumes;
        } else if (want.state == State::kWatching ||
                   want.state == State::kPaused) {
          server.stop(id);
          want.state = State::kStopped;
          ++stops;
        }
      }
      ASSERT_NO_FATAL_FAILURE(expect_matches(step));
    }

    // The storm reached every transition, finishing included.
    EXPECT_GT(pauses, 0);
    EXPECT_GT(resumes, 0);
    EXPECT_GT(stops, 0);
    int finished = 0;
    for (const VodServer::SessionInfo& info : mirror.sessions) {
      finished += info.state == State::kFinished ? 1 : 0;
    }
    EXPECT_GT(finished, 0);
  }
}

// Regression for the determinism contract (DESIGN.md §8/§11): the session
// table is a vector indexed by the dense session id, so every walk over it
// is id-ordered — an unordered_map here once made the walk order an
// artifact of hash-table internals. The golden FNV-1a checksum over a
// seeded VCR workload pins the full externally visible behavior
// bit-for-bit; any order-dependent walk sneaking back in, or a derived
// session position drifting from the stepped one, shows up as a checksum
// change on some platform or standard-library version.
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
      // Read the row before the VCR calls below mutate the schedule.
      const std::span<const Segment> tx = server.advance_slot();
      for (size_t channel = 0; channel < tx.size(); ++channel) {
        h = mix(h, static_cast<uint64_t>(channel));
        h = mix(h, static_cast<uint64_t>(tx[channel]));
      }
      const size_t channels_in_use = tx.size();
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
      h = mix(h, static_cast<uint64_t>(channels_in_use));
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
  const auto last = server.start();
  // Ids run densely from 1: neither 0 nor the id after the last start
  // names a session.
  EXPECT_DEATH(server.session(0), "unknown session");
  EXPECT_DEATH(server.pause(0), "unknown session");
  EXPECT_DEATH(server.stop(0), "unknown session");
  EXPECT_DEATH(server.session(last + 1), "unknown session");
  EXPECT_DEATH(server.resume(last + 1), "unknown session");
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
