#include "util/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace rdsim::util {

void parallel_for(std::size_t n, std::size_t n_workers,
                  const std::function<void(std::size_t)>& body) {
  if (n_workers == 0) {
    n_workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  n_workers = std::min(n_workers, n);
  // Index i writes only errors[i]; the joins below order those writes
  // before the scan.
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> helpers;
    for (std::size_t w = 1; w < n_workers; ++w) helpers.emplace_back(work);
    work();
  }  // helpers join here
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace rdsim::util
