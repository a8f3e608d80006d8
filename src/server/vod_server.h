// A session-oriented VOD server for one video.
//
// VodServer is the deployment-shaped wrapper around DhbScheduler: it
// advances the slot clock, hands out each slot's transmissions by channel,
// and manages client sessions with the VCR operations the protocol
// supports —
//
//   start()   admit a client (watches S_1..S_n, one segment per slot);
//   pause()   freeze playback; the client stops consuming (transmissions
//             already scheduled are never cancelled — other clients may
//             share them);
//   resume()  re-admit the client from its next unwatched segment via the
//             scheduler's suffix admission on_range(next, n);
//   stop()    abandon a watching or paused session.
//
// Every (re-)admission is verified against the playout contract at the
// moment it happens; `SessionInfo::playout_ok` accumulates the result.
//
// Session model: ids are handed out densely from 1, and the sessions live
// in a vector indexed by id - 1, so every walk over them is id-ordered by
// construction and no hash-table order can reach a result (the
// determinism linter, scripts/lint_determinism.py, bans that in result-
// affecting code). A watching session stores only the segment and slot of
// its latest (re-)admission; it watches one segment per slot from the next
// slot on, so session(), pause(), stop() and active_sessions() derive its
// position, and whether it has finished, from the clock. advance_slot()
// therefore walks no sessions: its cost does not grow with the number of
// sessions the server has ever admitted.
#pragma once

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "core/dhb.h"
#include "schedule/types.h"
#include "util/lifetime.h"
#include "util/thread_checker.h"

namespace vod {

class VodServer {
 public:
  using ClientId = uint64_t;

  enum class SessionState { kWatching, kPaused, kFinished, kStopped };

  struct SessionInfo {
    SessionState state = SessionState::kWatching;
    Segment next_segment = 1;   // first segment not yet watched
    Slot admitted_slot = 0;     // slot of the latest (re-)admission
    bool playout_ok = true;     // every (re-)admission met its deadlines
    int resumes = 0;
  };

  explicit VodServer(const DhbConfig& config);

  // Advances one slot and returns the segments transmitted during the new
  // current slot: entry k rides channel k (0-based). An instance holds its
  // channel for exactly one slot, so the schedule's row, in scheduling
  // order, is the channel layout: each fresh instance takes the lowest
  // channel idle in its slot, as in the paper's Figures 4 and 5. The span
  // is the scheduler's (DhbScheduler::advance_slot_view()), valid until
  // the next mutating call on this server. Every watching session moves
  // forward by one segment, which session() reads off the clock.
  std::span<const Segment> advance_slot() VOD_LIFETIMEBOUND;

  // Admits a new client during the current slot.
  ClientId start();

  // VCR operations; ids must name live (watching or paused) sessions:
  // pause() a watching one, resume() a paused one, stop() either.
  void pause(ClientId id);
  void resume(ClientId id);
  void stop(ClientId id);

  // Session `id` as of the current slot, by value: a watching session's
  // next_segment and kFinished are derived on each call.
  SessionInfo session(ClientId id) const;
  Slot current_slot() const { return scheduler_.current_slot(); }
  int num_segments() const { return scheduler_.num_segments(); }

  // Sessions currently watching or paused.
  int active_sessions() const;
  // Every session id (any state) in table order, which is ascending:
  // 1..the last id issued, however VCR operations interleave.
  // tests/vod_server_order_test.cc asserts exactly that.
  std::vector<ClientId> session_ids() const {
    std::vector<ClientId> ids(sessions_.size());
    std::iota(ids.begin(), ids.end(), ClientId{1});
    return ids;
  }
  // The most channels any slot has needed at once.
  int peak_channels() const { return peak_channels_; }

  const DhbScheduler& scheduler() const VOD_LIFETIMEBOUND { return scheduler_; }

 private:
  // One thread owns a server (sessions + the underlying scheduler); the
  // VCR entry points assert it in Debug builds (DESIGN.md §11).
  ThreadChecker serial_;

  DhbScheduler scheduler_;
  // Session id - 1 -> its record. A watching record holds its latest
  // (re-)admission; every other record holds the session as it is.
  std::vector<SessionInfo> sessions_;
  int peak_channels_ = 0;
};

}  // namespace vod
