#include "net/payload_pool.hpp"

#include "obs/catalog.hpp"
#include "obs/obs.hpp"

namespace rdsim::net {

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
  out.reserve(size_hint);
  return out;
}

void PayloadPool::release(Payload&& payload) {
  payload.clear();
  free_.push_back(std::move(payload));
  ++stats_.recycled;
  RDSIM_OBS_COUNT(obs::metric::kPoolRecycled, 1);
}

}  // namespace rdsim::net
