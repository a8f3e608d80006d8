#include "server/vod_server.h"

#include <algorithm>

#include "obs/trace.h"
#include "schedule/client_plan.h"
#include "util/check.h"

namespace vod {

VodServer::VodServer(const DhbConfig& config) : scheduler_(config) {}

std::span<const Segment> VodServer::advance_slot() {
  VOD_DCHECK_SERIAL(serial_);
  const std::span<const Segment> segments = scheduler_.advance_slot_view();
  VOD_TRACE_COUNTER("streams", "dhb", scheduler_.current_slot(),
                    segments.size());
  peak_channels_ = std::max(peak_channels_, static_cast<int>(segments.size()));
  return segments;
}

VodServer::ClientId VodServer::start() {
  VOD_DCHECK_SERIAL(serial_);
  SessionInfo info;
  info.admitted_slot = scheduler_.current_slot();
  const DhbRequestResult r = scheduler_.on_request();
  info.playout_ok = verify_plan(r.plan, scheduler_.periods()).deadlines_met;
  sessions_.push_back(info);
  return sessions_.size();
}

// pause() and stop() store the position they read, so a paused or stopped
// session keeps it; resume() stores the new admission.
void VodServer::pause(ClientId id) {
  VOD_DCHECK_SERIAL(serial_);
  SessionInfo info = session(id);
  VOD_CHECK_MSG(info.state == SessionState::kWatching,
                "only a watching session can pause");
  info.state = SessionState::kPaused;
  sessions_[id - 1] = info;
}

void VodServer::resume(ClientId id) {
  VOD_DCHECK_SERIAL(serial_);
  SessionInfo info = session(id);
  VOD_CHECK_MSG(info.state == SessionState::kPaused,
                "only a paused session can resume");
  // Only a watching session pauses, and one that has watched S_n is
  // finished, so a paused session always has a segment left to watch.
  VOD_DCHECK(info.next_segment <= num_segments());
  const DhbRequestResult r =
      scheduler_.on_range(info.next_segment, num_segments());
  info.playout_ok =
      info.playout_ok &&
      verify_plan(r.plan, scheduler_.resume_periods(info.next_segment))
          .deadlines_met;
  info.admitted_slot = scheduler_.current_slot();
  info.state = SessionState::kWatching;
  ++info.resumes;
  sessions_[id - 1] = info;
}

void VodServer::stop(ClientId id) {
  VOD_DCHECK_SERIAL(serial_);
  SessionInfo info = session(id);
  VOD_CHECK_MSG(info.state == SessionState::kWatching ||
                    info.state == SessionState::kPaused,
                "only a watching or paused session can stop");
  info.state = SessionState::kStopped;
  sessions_[id - 1] = info;
}

VodServer::SessionInfo VodServer::session(ClientId id) const {
  VOD_CHECK_MSG(id >= 1 && id <= sessions_.size(), "unknown session id");
  SessionInfo info = sessions_[id - 1];
  if (info.state != SessionState::kWatching) return info;
  // Watching S_j during slot admitted_slot + j: one segment per slot since
  // the (re-)admission, finished once past S_n. Computed in Slot, and
  // narrowed only once clamped to n + 1.
  const Slot next =
      std::min(info.next_segment + (current_slot() - info.admitted_slot),
               Slot{num_segments()} + 1);
  info.next_segment = static_cast<Segment>(next);
  if (next > num_segments()) info.state = SessionState::kFinished;
  return info;
}

int VodServer::active_sessions() const {
  int n = 0;
  for (ClientId id = 1; id <= sessions_.size(); ++id) {
    const SessionState state = session(id).state;
    if (state == SessionState::kWatching || state == SessionState::kPaused) {
      ++n;
    }
  }
  return n;
}

}  // namespace vod
