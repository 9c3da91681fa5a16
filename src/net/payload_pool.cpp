#include "net/payload_pool.hpp"

#include <algorithm>

#include "obs/catalog.hpp"
#include "obs/obs.hpp"

namespace rdsim::net {
namespace {

// Every packet of the campaign's stream workloads is 23-77 B (ACKs and DATA
// segments share one pool), so a buffer of at least this capacity serves any
// of them: an ACK's buffer is never grown again for a segment.
constexpr std::size_t kMinCapacity = 128;

}  // namespace

Payload PayloadPool::acquire(std::size_t size_hint) {
  Payload out;
  if (!free_.empty()) {
    out = std::move(free_.back());
    free_.pop_back();
    if (out.capacity() >= size_hint) {
      ++stats_.reused;
      RDSIM_OBS_COUNT(obs::metric::kPoolReused, 1);
      return out;
    }
  }
  ++stats_.fresh;
  RDSIM_OBS_COUNT(obs::metric::kPoolFresh, 1);
  out.reserve(std::max(size_hint, kMinCapacity));
  return out;
}

void PayloadPool::release(Payload&& payload) {
  payload.clear();
  free_.push_back(std::move(payload));
  ++stats_.recycled;
  RDSIM_OBS_COUNT(obs::metric::kPoolRecycled, 1);
}

}  // namespace rdsim::net
