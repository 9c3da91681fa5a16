#include "check/contracts.hpp"

#include <cstdio>
#include <sstream>

#include "util/thread_annotations.hpp"

namespace rdsim::check {

Site::Site(const char* kind, const char* expression, const char* file, int line,
           const char* message)
    : kind_{kind}, expression_{expression}, file_{file}, line_{line}, message_{message} {
  Registry::instance().register_site(this);
}

std::string Site::format() const {
  std::ostringstream os;
  os << kind_ << " failed: " << expression_ << " (" << message_ << ") at " << file_
     << ':' << line_;
  return os.str();
}

void Site::fail() {
  count_.fetch_add(1, std::memory_order_relaxed);
  switch (Registry::instance().policy()) {
    case Policy::kCount:
      break;
    case Policy::kLog:
      std::fprintf(stderr, "[rdsim::check] %s\n", format().c_str());
      break;
    case Policy::kThrow:
      throw ContractViolation{format()};
  }
}

ViolationRecord Site::record() const {
  return ViolationRecord{kind_, expression_, file_, line_, message_, count()};
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::register_site(Site* site) {
  const util::MutexLock lock{mutex_};
  sites_.push_back(site);
}

std::uint64_t Registry::total_violations() const {
  const util::MutexLock lock{mutex_};
  std::uint64_t total = 0;
  for (const Site* site : sites_) total += site->count();
  return total;
}

std::vector<ViolationRecord> Registry::snapshot() const {
  const util::MutexLock lock{mutex_};
  std::vector<ViolationRecord> records;
  records.reserve(sites_.size());
  for (const Site* site : sites_) records.push_back(site->record());
  return records;
}

void Registry::reset_counts() {
  const util::MutexLock lock{mutex_};
  for (Site* site : sites_) site->reset();
}

}  // namespace rdsim::check
