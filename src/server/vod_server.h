// A session-oriented VOD server for one video.
//
// VodServer is the deployment-shaped wrapper around DhbScheduler: it
// advances the slot clock, assigns each transmitted segment instance to a
// concrete channel, and manages client sessions with the VCR operations
// the protocol supports —
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
// Determinism note: sessions live in a std::map, not an unordered_map —
// advance_slot() and active_sessions() iterate the table, and iteration
// over a hash map is ordered by hash-table internals, which the
// determinism linter (scripts/lint_determinism.py) bans in result-
// affecting code. Session ids are dense sequential integers, so the
// ordered map costs nothing observable at session counts this server
// sees, and every walk is id-ordered by construction.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/dhb.h"
#include "schedule/types.h"
#include "util/thread_checker.h"

namespace vod {

struct ServerTransmission {
  int channel = 0;     // 0-based channel carrying this instance
  Segment segment = 0;
};

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

  // Advances one slot: returns the channel/segment pairs transmitted
  // during the new current slot and moves every watching session forward
  // by one segment.
  std::vector<ServerTransmission> advance_slot();

  // Admits a new client during the current slot.
  ClientId start();

  // VCR operations; ids must name live (watching or paused) sessions:
  // pause() a watching one, resume() a paused one, stop() either.
  void pause(ClientId id);
  void resume(ClientId id);
  void stop(ClientId id);

  const SessionInfo& session(ClientId id) const;
  Slot current_slot() const { return scheduler_.current_slot(); }
  int num_segments() const { return scheduler_.num_segments(); }

  // Sessions currently watching or paused.
  int active_sessions() const;
  // Every session id (any state) in table-iteration order — the order
  // advance_slot() and active_sessions() walk. The ordered map pins it
  // ascending-by-id no matter how VCR operations interleave;
  // tests/vod_server_order_test.cc asserts exactly that, so swapping the
  // container for an unordered one cannot silently reorder the walks.
  std::vector<ClientId> session_ids() const {
    std::vector<ClientId> ids;
    ids.reserve(sessions_.size());
    for (const auto& [id, info] : sessions_) ids.push_back(id);
    return ids;
  }
  // Channels busy during the current slot / the most ever needed at once.
  int channels_in_use() const { return channels_in_use_; }
  int peak_channels() const { return peak_channels_; }
  uint64_t total_transmissions() const { return total_transmissions_; }

  const DhbScheduler& scheduler() const { return scheduler_; }

 private:
  SessionInfo& live_session(ClientId id);

  // One thread owns a server (sessions + the underlying scheduler); the
  // VCR entry points assert it in Debug builds (DESIGN.md §11).
  ThreadChecker serial_;

  DhbScheduler scheduler_;
  std::map<ClientId, SessionInfo> sessions_;
  ClientId next_id_ = 1;
  int channels_in_use_ = 0;
  int peak_channels_ = 0;
  uint64_t total_transmissions_ = 0;
};

}  // namespace vod
