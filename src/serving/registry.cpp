#include "serving/registry.h"

#include <utility>

namespace pardpp::serving {

ServingSession::ServingSession(std::unique_ptr<CountingOracle> oracle,
                               SessionOptions options,
                               std::size_t resident_bytes)
    : oracle_(std::move(oracle)),
      resident_bytes_(resident_bytes),
      session_(std::make_unique<SamplerSession>(*oracle_,
                                                std::move(options))) {}

std::shared_ptr<ServingSession> SessionRegistry::acquire(
    const KernelFingerprint& fingerprint, const SessionOptions& options,
    std::size_t resident_bytes, const OracleFactory& make_oracle) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.lookups;
  const auto found = index_.find(fingerprint);
  if (found != index_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, found->second);  // touch
    return found->second->session;
  }
  ++stats_.misses;
  auto session = std::make_shared<ServingSession>(make_oracle(), options,
                                                  resident_bytes);
  lru_.push_front(Entry{fingerprint, std::move(session)});
  index_.emplace(fingerprint, lru_.begin());
  stats_.resident_bytes += lru_.front().session->resident_bytes();
  ++stats_.sessions;
  evict_over_budget_locked();
  return lru_.front().session;
}

void SessionRegistry::evict_over_budget_locked() {
  while (stats_.resident_bytes > options_.max_resident_bytes &&
         lru_.size() > 1) {
    const Entry& coldest = lru_.back();
    stats_.resident_bytes -= coldest.session->resident_bytes();
    index_.erase(coldest.fingerprint);
    lru_.pop_back();
    --stats_.sessions;
    ++stats_.evictions;
  }
}

std::shared_ptr<ServingSession> SessionRegistry::peek(
    const KernelFingerprint& fingerprint) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto found = index_.find(fingerprint);
  return found == index_.end() ? nullptr : found->second->session;
}

std::vector<std::pair<KernelFingerprint, std::shared_ptr<ServingSession>>>
SessionRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<KernelFingerprint, std::shared_ptr<ServingSession>>>
      out;
  out.reserve(lru_.size());
  for (const Entry& entry : lru_) out.emplace_back(entry.fingerprint,
                                                   entry.session);
  return out;
}

RegistryStats SessionRegistry::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace pardpp::serving
