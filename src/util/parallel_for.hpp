// Data-parallel loop for deterministic work.
//
// The campaign runner fans the 12 subject simulations out with parallel_for
// and each subject writes only its own result slot, so the campaign is
// bit-identical at every worker count (see docs/parallel_campaign.md). The
// loop is deliberately plain: the calling thread and n_workers - 1 helper
// threads claim indices from one atomic counter. The bodies here run for
// seconds, so there is nothing to gain from anything cleverer.
#pragma once

#include <cstddef>
#include <functional>

namespace rdsim::util {

/// Run body(i) once for every i in [0, n), on the calling thread plus
/// `n_workers` - 1 std::jthreads, and return after all of them have joined.
/// `n_workers` is capped at `n`; 0 means std::thread::hardware_concurrency()
/// (at least 1). With one worker every index runs on the caller, in order,
/// and no thread starts. Every index runs even when some throw; the
/// exception of the *lowest* failing index is then rethrown, so error
/// behaviour does not depend on scheduling.
void parallel_for(std::size_t n, std::size_t n_workers,
                  const std::function<void(std::size_t)>& body);

}  // namespace rdsim::util
