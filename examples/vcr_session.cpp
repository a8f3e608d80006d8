// VCR sessions — pause/resume on a live DHB server.
//
// The paper's protocol never cancels a scheduled transmission, which makes
// VCR operations cheap: a paused client simply stops consuming, and a
// resume is a suffix admission (on_range(f, n)) that shares whatever the
// ongoing schedule already carries. This example walks one evening at a
// small VOD service: clients arrive, some pause for a break, everyone's
// playout contract is verified, and the channel usage is reported.
//
// Build & run:   cmake --build build && ./build/examples/vcr_session
// Exits non-zero if any client missed a deadline; ctest runs it as
// vcr_session_example.
#include <cstdio>
#include <vector>

#include "server/vod_server.h"
#include "sim/random.h"

using namespace vod;

int main() {
  DhbConfig config;  // 99 segments, two-hour video
  VodServer server(config);
  Rng rng(7);

  std::printf("One simulated evening (6 h), 40 req/h, 15%% of clients take "
              "one 10-minute break:\n\n");

  struct Tracked {
    VodServer::ClientId id;
    Slot pause_at = 0;   // slot to pause in (0 = never)
    Slot resume_at = 0;
  };
  std::vector<Tracked> clients;

  const double d = 7200.0 / 99.0;  // slot seconds
  const auto slots = static_cast<Slot>(6.0 * 3600.0 / d);
  const double arrivals_per_slot = 40.0 / 3600.0 * d;
  uint64_t transmissions = 0;

  for (Slot t = 0; t < slots; ++t) {
    transmissions += server.advance_slot().size();
    const Slot now = server.current_slot();

    for (Tracked& c : clients) {
      if (c.pause_at == now &&
          server.session(c.id).state == VodServer::SessionState::kWatching) {
        server.pause(c.id);
      }
      if (c.resume_at == now &&
          server.session(c.id).state == VodServer::SessionState::kPaused) {
        server.resume(c.id);
      }
    }

    for (uint64_t a = rng.poisson(arrivals_per_slot); a > 0; --a) {
      Tracked c;
      c.id = server.start();
      if (rng.uniform() < 0.15) {
        c.pause_at = now + 5 + static_cast<Slot>(rng.uniform_index(40));
        c.resume_at = c.pause_at + static_cast<Slot>(600.0 / d) + 1;
      }
      clients.push_back(c);
    }
  }

  int finished = 0, watching = 0, paused = 0, broken = 0, resumes = 0;
  for (const Tracked& c : clients) {
    const auto& info = server.session(c.id);
    finished += info.state == VodServer::SessionState::kFinished;
    watching += info.state == VodServer::SessionState::kWatching;
    paused += info.state == VodServer::SessionState::kPaused;
    broken += !info.playout_ok;
    resumes += info.resumes;
  }

  std::printf("clients admitted   : %zu\n", clients.size());
  std::printf("finished / watching / paused : %d / %d / %d\n", finished,
              watching, paused);
  std::printf("resume operations  : %d\n", resumes);
  std::printf("playout violations : %d\n", broken);
  std::printf("transmissions      : %llu segment-slots (%.2f avg streams)\n",
              static_cast<unsigned long long>(transmissions),
              static_cast<double>(transmissions) / static_cast<double>(slots));
  std::printf("peak channels      : %d\n", server.peak_channels());
  std::printf("\nEvery client — including every pause/resume — met every "
              "deadline: %s\n", broken == 0 ? "yes" : "NO");
  return broken == 0 ? 0 : 1;
}
