// Session registry: long-lived SamplerSessions keyed by kernel
// fingerprint, with LRU eviction by resident-bytes budget (DESIGN.md §2
// convention 13).
//
// An entry owns its oracle AND its session (the session holds a
// reference into the oracle, so the pair lives and dies together).
// Entries are handed out as shared_ptr: eviction removes an entry from
// the registry but in-flight holders keep it alive until their batch
// drains — an evicted session finishes its work, it is just never handed
// out again. A later acquire of the same fingerprint rebuilds it with a
// new SessionHealth::session_epoch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "distributions/oracle.h"
#include "sampling/session.h"
#include "serving/fingerprint.h"

namespace pardpp::serving {

/// One registry entry: oracle + primed session. Its counters are the
/// session's SessionHealth.
class ServingSession {
 public:
  /// Takes ownership of the oracle; primes the session immediately (so
  /// the construction cost is paid by the acquiring request, once).
  /// `resident_bytes` is the caller's cost estimate the registry charges
  /// against its budget.
  ServingSession(std::unique_ptr<CountingOracle> oracle,
                 SessionOptions options, std::size_t resident_bytes);
  ServingSession(const ServingSession&) = delete;
  ServingSession& operator=(const ServingSession&) = delete;

  [[nodiscard]] SamplerSession& session() noexcept { return *session_; }
  [[nodiscard]] const SamplerSession& session() const noexcept {
    return *session_;
  }
  [[nodiscard]] const CountingOracle& oracle() const noexcept {
    return *oracle_;
  }
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return resident_bytes_;
  }

 private:
  std::unique_ptr<CountingOracle> oracle_;
  std::size_t resident_bytes_;
  std::unique_ptr<SamplerSession> session_;  // last: references the oracle
};

struct RegistryOptions {
  /// LRU budget: after an insert pushes the resident-byte sum past this,
  /// least-recently-used entries are dropped (the just-acquired entry is
  /// never dropped, so one oversized session still serves).
  std::size_t max_resident_bytes = std::size_t{256} << 20;
};

struct RegistryStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;  ///< cold builds (first acquire of a key)
  std::uint64_t evictions = 0;
  std::size_t sessions = 0;        ///< resident entries right now
  std::size_t resident_bytes = 0;  ///< sum of resident estimates
};

class SessionRegistry {
 public:
  /// Builds the oracle for a cold entry. Called under
  /// the registry lock: concurrent acquires of the same fingerprint
  /// build once, at the cost of serializing cold builds of *different*
  /// kernels — acceptable for a build that is paid once per kernel.
  using OracleFactory = std::function<std::unique_ptr<CountingOracle>()>;

  explicit SessionRegistry(RegistryOptions options = {})
      : options_(options) {}

  /// Hit: touches the LRU slot and returns the resident session.
  /// Miss: builds, inserts most-recent, then
  /// evicts cold entries until the byte budget holds. Construction
  /// exceptions (oracle factory or session validate/prime) propagate to
  /// the caller and leave the registry unchanged.
  [[nodiscard]] std::shared_ptr<ServingSession> acquire(
      const KernelFingerprint& fingerprint, const SessionOptions& options,
      std::size_t resident_bytes, const OracleFactory& make_oracle);

  /// The resident session for a fingerprint without touching LRU order
  /// or counters (stats/tests); nullptr when absent.
  [[nodiscard]] std::shared_ptr<ServingSession> peek(
      const KernelFingerprint& fingerprint) const;

  /// Every resident entry, most-recently-used first (the stats surface).
  [[nodiscard]] std::vector<
      std::pair<KernelFingerprint, std::shared_ptr<ServingSession>>>
  snapshot() const;

  [[nodiscard]] RegistryStats stats() const;

 private:
  struct Entry {
    KernelFingerprint fingerprint;
    std::shared_ptr<ServingSession> session;
  };

  /// Drops cold-end entries while over budget (never the front — the
  /// entry the current acquire just touched or inserted).
  void evict_over_budget_locked();

  mutable std::mutex mutex_;
  RegistryOptions options_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<KernelFingerprint, std::list<Entry>::iterator,
                     KernelFingerprintHasher>
      index_;
  RegistryStats stats_;
};

}  // namespace pardpp::serving
