// Session-table iteration order under adversarial VCR interleavings.
//
// VodServer's determinism contract (vod_server.h header comment) hangs on
// the session table being id-ordered: session_ids() and active_sessions()
// walk it, and if that order ever followed insertion pattern or hash
// internals, per-session results would vary run to run. The table is a
// vector indexed by the dense session id, so the order holds by
// construction; these tests drive it through hostile insertion/removal
// interleavings and pin the walk to ascending ids — the guard that keeps
// a future container swap (to a hash map, or a table that compacts
// finished sessions) from reordering the walk silently.
#include "server/vod_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sim/random.h"

namespace vod {
namespace {

DhbConfig small_config(int n) {
  DhbConfig c;
  c.num_segments = n;
  return c;
}

void expect_ascending(const std::vector<VodServer::ClientId>& ids) {
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
}

TEST(VodServerOrder, IdsAscendRegardlessOfVcrInterleaving) {
  // Adversarial pattern: bursts of starts, then stop/pause from both ends
  // and the middle, resumes out of order, more starts. The table must
  // stay ascending-by-id through all of it (stopped sessions keep their
  // slot in the walk; ids are never reused).
  VodServer server(small_config(8));
  server.advance_slot();

  std::vector<VodServer::ClientId> ids;
  for (int i = 0; i < 7; ++i) ids.push_back(server.start());
  expect_ascending(server.session_ids());

  server.stop(ids[3]);            // middle
  server.stop(ids[0]);            // front
  server.pause(ids[6]);           // back
  server.pause(ids[1]);
  server.advance_slot();
  for (int i = 0; i < 5; ++i) ids.push_back(server.start());
  server.resume(ids[6]);          // resume in reverse pause order
  server.resume(ids[1]);
  server.stop(ids[10]);
  server.advance_slot();

  const std::vector<VodServer::ClientId> walk = server.session_ids();
  ASSERT_EQ(walk.size(), ids.size());
  expect_ascending(walk);
  // The walk is exactly the start order: ids are dense and sequential.
  std::vector<VodServer::ClientId> sorted_ids = ids;
  std::sort(sorted_ids.begin(), sorted_ids.end());
  EXPECT_EQ(walk, sorted_ids);
  EXPECT_EQ(sorted_ids, ids);  // start() itself hands out ascending ids
}

TEST(VodServerOrder, RandomizedVcrStormKeepsWalkAndCountersCoherent) {
  // Seeded storm of start/pause/resume/stop/advance. After every step the
  // walk must be ascending and active_sessions() must equal a reference
  // count kept in id order — if iteration order leaked into either, the
  // mirror would diverge.
  VodServer server(small_config(12));
  server.advance_slot();
  Rng rng(4242);
  std::map<VodServer::ClientId, bool> paused;  // live sessions -> paused?

  for (int step = 0; step < 400; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.35) {
      paused[server.start()] = false;
    } else if (roll < 0.5 && !paused.empty()) {
      auto it = paused.begin();
      std::advance(it, rng.uniform_index(paused.size()));
      if (it->second) {
        server.resume(it->first);
        it->second = false;
      } else {
        server.pause(it->first);
        it->second = true;
      }
    } else if (roll < 0.6 && !paused.empty()) {
      auto it = paused.begin();
      std::advance(it, rng.uniform_index(paused.size()));
      server.stop(it->first);
      paused.erase(it);
    } else {
      server.advance_slot();
      // Watching sessions can finish; drop them from the live mirror.
      for (auto it = paused.begin(); it != paused.end();) {
        const auto state = server.session(it->first).state;
        if (state == VodServer::SessionState::kFinished) {
          it = paused.erase(it);
        } else {
          ++it;
        }
      }
    }
    expect_ascending(server.session_ids());
    EXPECT_EQ(server.active_sessions(), static_cast<int>(paused.size()))
        << "step " << step;
  }

  // Every session the mirror still tracks is live and id-addressable.
  for (const auto& [id, is_paused] : paused) {
    const auto state = server.session(id).state;
    EXPECT_EQ(state, is_paused ? VodServer::SessionState::kPaused
                               : VodServer::SessionState::kWatching);
  }
}

TEST(VodServerOrder, PerSessionResultsIndependentOfOperationOrder) {
  // Two servers, same sessions, VCR ops issued in opposite orders within
  // each slot. Per-session outcomes (state, next_segment, playout_ok)
  // must be identical: the slot boundary, not op arrival order inside a
  // slot, is the only thing results may depend on.
  VodServer a(small_config(6));
  VodServer b(small_config(6));
  a.advance_slot();
  b.advance_slot();

  std::vector<VodServer::ClientId> ia, ib;
  for (int i = 0; i < 4; ++i) ia.push_back(a.start());
  for (int i = 0; i < 4; ++i) ib.push_back(b.start());

  a.pause(ia[1]);
  a.pause(ia[2]);
  b.pause(ib[2]);  // reversed
  b.pause(ib[1]);
  a.advance_slot();
  b.advance_slot();
  a.resume(ia[1]);
  a.resume(ia[2]);
  b.resume(ib[2]);  // reversed
  b.resume(ib[1]);
  for (int k = 0; k < 8; ++k) {
    a.advance_slot();
    b.advance_slot();
  }

  ASSERT_EQ(ia.size(), ib.size());
  for (size_t i = 0; i < ia.size(); ++i) {
    const auto& sa = a.session(ia[i]);
    const auto& sb = b.session(ib[i]);
    EXPECT_EQ(sa.state, sb.state) << "session " << i;
    EXPECT_EQ(sa.next_segment, sb.next_segment) << "session " << i;
    EXPECT_EQ(sa.playout_ok, sb.playout_ok) << "session " << i;
    EXPECT_EQ(sa.resumes, sb.resumes) << "session " << i;
  }
  EXPECT_EQ(a.session_ids(), b.session_ids());
}

}  // namespace
}  // namespace vod
