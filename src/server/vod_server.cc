#include "server/vod_server.h"

#include <algorithm>
#include <span>

#include "obs/trace.h"
#include "schedule/client_plan.h"
#include "util/check.h"

namespace vod {

VodServer::VodServer(const DhbConfig& config) : scheduler_(config) {}

std::vector<ServerTransmission> VodServer::advance_slot() {
  VOD_DCHECK_SERIAL(serial_);
  const std::span<const Segment> segments = scheduler_.advance_slot_view();
  VOD_TRACE_COUNTER("streams", "dhb", scheduler_.current_slot(),
                    segments.size());

  // Channel assignment is per slot: instances occupy a channel for exactly
  // one slot, so the lowest channels are handed out in scheduling order.
  std::vector<ServerTransmission> out;
  out.reserve(segments.size());
  for (size_t k = 0; k < segments.size(); ++k) {
    out.push_back(ServerTransmission{static_cast<int>(k), segments[k]});
  }
  channels_in_use_ = static_cast<int>(segments.size());
  peak_channels_ = std::max(peak_channels_, channels_in_use_);
  total_transmissions_ += segments.size();

  // Watching sessions consume one segment per slot, starting the slot
  // after their (re-)admission.
  const Slot now = scheduler_.current_slot();
  for (auto& [id, info] : sessions_) {
    if (info.state != SessionState::kWatching) continue;
    if (info.admitted_slot >= now) continue;  // admitted this very slot
    ++info.next_segment;
    if (info.next_segment > scheduler_.num_segments()) {
      info.state = SessionState::kFinished;
    }
  }
  return out;
}

VodServer::ClientId VodServer::start() {
  VOD_DCHECK_SERIAL(serial_);
  const ClientId id = next_id_++;
  SessionInfo info;
  info.admitted_slot = scheduler_.current_slot();
  const DhbRequestResult r = scheduler_.on_request();
  info.playout_ok = verify_plan(r.plan, scheduler_.periods()).deadlines_met;
  sessions_.emplace(id, info);
  return id;
}

VodServer::SessionInfo& VodServer::live_session(ClientId id) {
  VOD_DCHECK_SERIAL(serial_);  // chokepoint for the pause/resume/stop mutators
  auto it = sessions_.find(id);
  VOD_CHECK_MSG(it != sessions_.end(), "unknown session id");
  return it->second;
}

void VodServer::pause(ClientId id) {
  SessionInfo& info = live_session(id);
  VOD_CHECK_MSG(info.state == SessionState::kWatching,
                "only a watching session can pause");
  info.state = SessionState::kPaused;
}

void VodServer::resume(ClientId id) {
  SessionInfo& info = live_session(id);
  VOD_CHECK_MSG(info.state == SessionState::kPaused,
                "only a paused session can resume");
  // Nothing left to watch: the pause happened after the last segment.
  if (info.next_segment > scheduler_.num_segments()) {
    info.state = SessionState::kFinished;
    return;
  }
  const DhbRequestResult r = scheduler_.on_range(
      info.next_segment, scheduler_.num_segments());
  info.playout_ok =
      info.playout_ok &&
      verify_plan(r.plan, scheduler_.resume_periods(info.next_segment))
          .deadlines_met;
  info.admitted_slot = scheduler_.current_slot();
  info.state = SessionState::kWatching;
  ++info.resumes;
}

void VodServer::stop(ClientId id) {
  SessionInfo& info = live_session(id);
  VOD_CHECK_MSG(info.state == SessionState::kWatching ||
                    info.state == SessionState::kPaused,
                "only a watching or paused session can stop");
  info.state = SessionState::kStopped;
}

const VodServer::SessionInfo& VodServer::session(ClientId id) const {
  auto it = sessions_.find(id);
  VOD_CHECK_MSG(it != sessions_.end(), "unknown session id");
  return it->second;
}

int VodServer::active_sessions() const {
  int n = 0;
  for (const auto& [id, info] : sessions_) {
    if (info.state == SessionState::kWatching ||
        info.state == SessionState::kPaused) {
      ++n;
    }
  }
  return n;
}

}  // namespace vod
