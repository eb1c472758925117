// The paper's §7 hard instance for batched rejection sampling.
//
// Ground set [n] (n even) is partitioned into pairs S_i = (2i, 2i+1);
// mu is uniform over unions of k/2 pairs (eq. (5) of the paper). The
// distribution is Omega(1)-fractionally log-concave yet *positively*
// correlated inside pairs, which makes the acceptance ratio of i.i.d.
// proposal batches blow up with the number of "duplicates" (pairs hit
// twice): P[a mu_l draw has >= t duplicates] = (Theta(l^2/k))^t. The
// counting oracle is closed-form, so the batched samplers can be driven to
// k in the thousands at negligible oracle cost — this instance powers both
// the depth-scaling benches and bench_hard_instance.
//
// State under conditioning: an element whose partner was conditioned away
// becomes "forced" (it belongs to every sample); untouched pairs remain
// exchangeable.
#pragma once

#include "distributions/oracle.h"

namespace pardpp {

class HardInstanceOracle final : public CountingOracle {
 public:
  /// Fresh instance: n even, k even, k <= n, mu uniform on pair unions.
  HardInstanceOracle(std::size_t n, std::size_t k);

  [[nodiscard]] std::size_t ground_size() const override {
    return partner_.size();
  }
  [[nodiscard]] std::size_t sample_size() const override { return k_; }
  [[nodiscard]] double log_joint_marginal(std::span<const int> t) const override;
  [[nodiscard]] std::vector<double> marginals() const override;
  [[nodiscard]] std::unique_ptr<CountingOracle> condition(
      std::span<const int> t) const override;
  [[nodiscard]] std::unique_ptr<CountingOracle> clone() const override;
  [[nodiscard]] std::string name() const override { return "hard-instance"; }

 private:
  HardInstanceOracle() = default;

  // partner_[i]: current index of i's partner, or -1 when i is forced.
  std::vector<int> partner_;
  std::size_t k_ = 0;
  std::size_t free_pairs_ = 0;
  std::size_t forced_ = 0;
};

}  // namespace pardpp
