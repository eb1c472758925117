#include "sampling/intermediate.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "support/combinatorics.h"
#include "support/failpoint.h"
#include "support/logsum.h"

namespace pardpp {

void DistillOptions::validate(std::size_t k) const {
  check_arg(max_attempts != 0,
            "DistillOptions::max_attempts: must be positive (every draw "
            "proposes at least one candidate pool)");
  if (candidate_budget != 0 && k != 0) {
    check_arg(candidate_budget >= k,
              "DistillOptions::candidate_budget: " +
                  std::to_string(candidate_budget) +
                  " cannot seat a sample of size " + std::to_string(k) +
                  " (every pool would starve)");
  }
  if (sparsified_domain != 0 && k != 0) {
    check_arg(sparsified_domain >= k,
              "DistillOptions::sparsified_domain: " +
                  std::to_string(sparsified_domain) +
                  " is below the sample size " + std::to_string(k) +
                  " (the alias domain could never cover a sample)");
  }
}

namespace {

using WeightedId = std::pair<double, int>;

// Strict total order (heavier first, ties to the lower id), so the
// sparsified domain is a deterministic function of the profile.
bool heavier(const WeightedId& a, const WeightedId& b) {
  if (a.first != b.first) return a.first > b.first;
  return a.second < b.second;
}

// The `count` heaviest positive-weight items of a stream of (weight, id)
// pairs offered in ascending id order, in O(n) time and O(count) memory.
// Offers collect in a buffer of 2·count; a full buffer is cut back to its
// heaviest `count`, whose lightest member becomes the bar later offers
// must clear (the bar starts at 0, which drops zero weights). Ids
// ascend, so an offer tied with the bar loses the tie-break: clearing
// the bar means a strictly larger weight.
class HeaviestSelector {
 public:
  explicit HeaviestSelector(std::size_t count) : count_(count) {
    buffer_.reserve(2 * count);
  }

  void offer(double w, std::size_t id) {
    if (w <= bar_) return;
    buffer_.emplace_back(w, static_cast<int>(id));
    if (buffer_.size() == 2 * count_) trim();
  }

  // The selection in `heavier` order.
  std::vector<WeightedId> take() {
    if (buffer_.size() > count_) trim();
    std::sort(buffer_.begin(), buffer_.end(), heavier);
    return std::move(buffer_);
  }

 private:
  void trim() {
    std::nth_element(buffer_.begin(),
                     buffer_.begin() + static_cast<std::ptrdiff_t>(count_ - 1),
                     buffer_.end(), heavier);
    buffer_.resize(count_);
    bar_ = buffer_.back().first;
  }

  std::size_t count_;
  double bar_ = 0.0;
  std::vector<WeightedId> buffer_;
};

}  // namespace

DistillationPlan::DistillationPlan(const CountingOracle& base,
                                   DistillOptions options)
    : base_(&base), options_(options), k_(base.sample_size()) {
  options_.validate(k_);
  const DistillationProfile profile = base.distillation_profile();
  check_arg(!profile.weights.empty(),
            "DistillationPlan: family " + base.name() +
                " does not support distillation");
  check_arg(profile.weights.size() == base.ground_size(),
            "DistillationPlan: profile size mismatch");
  // An understated rank bound would shrink the Maclaurin bound below
  // real restricted partition functions and silently bias the output
  // law — the one profile mistake exactness cannot survive.
  check_arg(profile.rank_bound >= k_,
            "DistillationPlan: profile rank_bound below k");
  m_ = options_.candidate_budget != 0
           ? options_.candidate_budget
           : std::max<std::size_t>(64, 4 * k_ * k_);
  check_arg(m_ >= k_, "DistillationPlan: candidate budget below k");

  const std::size_t n = profile.weights.size();
  std::size_t log2n = 1;
  while ((static_cast<std::size_t>(1) << log2n) < n) ++log2n;
  std::size_t domain_target = 0;  // k = 0 builds no proposal tables
  if (k_ > 0) {
    domain_target = options_.sparsified_domain != 0
                        ? options_.sparsified_domain
                        : std::max(m_, k_ * log2n * log2n);
  }

  // One pass: tau, and the domain D — the |D| heaviest items by proposal
  // weight. An item's proposal weight is the difference of consecutive
  // prefix sums of the profile (it can differ from the raw weight by one
  // rounding): the exact mass the inverse-CDF over those sums assigns it.
  HeaviestSelector selector(std::min(domain_target, n));
  double tau = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = profile.weights[i];
    check_arg(w >= 0.0, "DistillationPlan: negative weight");
    const double below = tau;
    tau += w;
    if (domain_target != 0) selector.offer(tau - below, i);
  }
  check_arg(k_ == 0 || tau > 0.0, "DistillationPlan: all weights zero");

  // log M = log C(r, k) + k log(tau / r): Maclaurin's bound on e_k of a
  // PSD spectrum with at most r nonzero values summing to tau (maximized
  // at the uniform spectrum). r < k means no restriction can carry mass;
  // the base constructor checks already exclude that, but keep log M
  // finite so the failure mode is max_attempts, not NaN.
  const std::size_t rank_r =
      std::max<std::size_t>(std::min(profile.rank_bound, m_), k_);
  log_m_ = k_ == 0 ? 0.0
                   : log_binomial(rank_r, k_) +
                         static_cast<double>(k_) *
                             (std::log(tau) -
                              std::log(static_cast<double>(rank_r)));

  if (k_ > 0) build_tables(profile.weights, tau, selector.take());
}

void DistillationPlan::build_tables(
    const std::vector<double>& weights, double tau,
    const std::vector<std::pair<double, int>>& domain) {
  const std::size_t n = weights.size();
  const std::size_t t = domain.size();
  std::vector<bool> in_domain(n, false);
  domain_items_.reserve(t);
  double domain_mass = 0.0;
  for (const auto& [w, id] : domain) {
    domain_items_.push_back(id);
    domain_mass += w;
    in_domain[static_cast<std::size_t>(id)] = true;
  }

  // One pass in id order: the row scales, and the prefix sums of the tail
  // weights over all n ids. Domain and zero-weight items add 0, so
  // upper_bound never lands on them and the index it returns is the item
  // id; the sums are bit-identical to a table compacted to the tail items.
  row_scale_.resize(n);
  tail_cumulative_.resize(n);
  const double md = static_cast<double>(m_);
  double running = 0.0;
  tail_mass_ = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double raw = weights[i];
    row_scale_[i] = raw > 0.0 ? std::sqrt(tau / (md * raw)) : 0.0;
    const double below = running;
    running += raw;
    const double w = running - below;
    if (w > 0.0 && !in_domain[i]) {
      tail_mass_ += w;
      last_tail_ = i;
    }
    tail_cumulative_[i] = tail_mass_;
  }
  if (tail_mass_ == 0.0) {
    tail_cumulative_ = {};
  } else {
    p_domain_ = domain_mass / (domain_mass + tail_mass_);
  }

  // Vose alias table over D: cell c keeps its own item with probability
  // alias_prob_[c], otherwise the donated alias_other_[c]. Scaled
  // weights p_c = w_c * t / mass partition [0, t) exactly (up to one
  // rounding per cell), so a single uniform serves cell + coin.
  alias_prob_.assign(t, 1.0);
  alias_other_.resize(t);
  for (std::size_t c = 0; c < t; ++c)
    alias_other_[c] = static_cast<std::uint32_t>(c);
  std::vector<double> scaled(t);
  for (std::size_t c = 0; c < t; ++c)
    scaled[c] = domain[c].first * static_cast<double>(t) / domain_mass;
  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  small.reserve(t);
  large.reserve(t);
  for (std::size_t c = t; c-- > 0;) {  // fixed order => deterministic table
    (scaled[c] < 1.0 ? small : large).push_back(
        static_cast<std::uint32_t>(c));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    large.pop_back();
    alias_prob_[s] = scaled[s];
    alias_other_[s] = l;
    scaled[l] -= 1.0 - scaled[s];
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Leftovers are 1.0 up to roundoff; they keep their own item.
}

std::size_t DistillationPlan::propose_candidate(double u) const {
  if (u < p_domain_ || tail_cumulative_.empty()) {
    // Rescale the in-domain uniform onto [0, 1) and spend it on the
    // one-uniform alias lookup: integer part picks the cell, fractional
    // part is the cell's keep/alias coin.
    const double v = u / p_domain_;
    const auto t = static_cast<double>(domain_items_.size());
    double cell_f = v * t;
    auto cell = static_cast<std::size_t>(cell_f);
    if (cell >= domain_items_.size()) {  // v == 1 at roundoff
      cell = domain_items_.size() - 1;
      cell_f = static_cast<double>(cell) + 1.0;
    }
    const double frac = cell_f - static_cast<double>(cell);
    const std::size_t slot =
        frac < alias_prob_[cell] ? cell : alias_other_[cell];
    return static_cast<std::size_t>(domain_items_[slot]);
  }
  // Tail fallback: rescale the remainder onto the tail's exact
  // cumulative table — the inverse-CDF law restricted to [n] \ D.
  const double rem = (u - p_domain_) / (1.0 - p_domain_);
  const double target = rem * tail_mass_;
  const auto it = std::upper_bound(tail_cumulative_.begin(),
                                   tail_cumulative_.end(), target);
  // target == tail mass at roundoff: the last positive-weight tail item.
  if (it == tail_cumulative_.end()) return last_tail_;
  return static_cast<std::size_t>(it - tail_cumulative_.begin());
}

std::unique_ptr<CountingOracle> DistillationPlan::propose(
    RandomStream& rng, std::vector<int>& items, std::vector<double>& scales,
    std::size_t* tail_candidates) const {
  check_arg(k_ > 0,
            "DistillationPlan::propose: k == 0 has no candidate pool "
            "(draw() returns the empty sample without proposing)");
  items.clear();
  scales.clear();
  items.reserve(m_);
  scales.reserve(m_);
  std::size_t tail_hits = 0;
  for (std::size_t j = 0; j < m_; ++j) {
    const double u = rng.uniform();
    if (u >= p_domain_) ++tail_hits;
    const std::size_t i = propose_candidate(u);
    items.push_back(static_cast<int>(i));
    scales.push_back(row_scale_[i]);
  }
  pools_.fetch_add(1, std::memory_order_relaxed);
  tail_candidates_.fetch_add(tail_hits, std::memory_order_relaxed);
  if (tail_candidates != nullptr) *tail_candidates = tail_hits;
  return base_->restrict_to(items, scales);
}

DistillationPlan::ProposalStats DistillationPlan::proposal_stats()
    const noexcept {
  ProposalStats stats;
  stats.pools = pools_.load(std::memory_order_relaxed);
  stats.tail_candidates = tail_candidates_.load(std::memory_order_relaxed);
  return stats;
}

SampleResult DistillationPlan::draw(RandomStream& rng,
                                    const InnerSampler& inner) const {
  if (k_ == 0) return {};
  std::vector<int> items;
  std::vector<double> scales;
  std::size_t duplicate_rejects = 0;
  std::size_t tail_candidates = 0;
  for (std::size_t attempt = 0; attempt < options_.max_attempts; ++attempt) {
    std::size_t pool_tail = 0;
    const auto restricted = propose(rng, items, scales, &pool_tail);
    tail_candidates += pool_tail;
    const double log_z = restricted->log_partition();
    // The acceptance uniform is consumed on every attempt (convention in
    // the header), so the stream position after a rejection does not
    // depend on why the pool was rejected.
    const double u = rng.uniform();
    // Injected rejection AFTER the acceptance uniform is consumed: the
    // stream protocol is preserved, and a rejected-and-redrawn pool
    // leaves the output law untouched (the exactness argument in the
    // header) — the one fault class whose injection is law-invariant at
    // any rate, which is what lets the CI fault leg run the statistical
    // harness with this site armed.
    if (failpoint("distill.accept")) continue;
    if (u <= 0.0 || std::log(u) >= log_z - log_m_) continue;
    SampleResult result = inner(*restricted, rng);
    result.diag.proposals += attempt + 1;
    result.diag.accepted_batches += 1;
    for (int& item : result.items)
      item = items[static_cast<std::size_t>(item)];
    std::sort(result.items.begin(), result.items.end());
    const bool distinct =
        std::adjacent_find(result.items.begin(), result.items.end()) ==
        result.items.end();
    // Parallel rows make duplicate selection a probability-zero event;
    // reaching one means roundoff promoted an exactly-null cell, which
    // the family tolerances treat as a rejection, not a sample.
    if (!distinct) {
      ++duplicate_rejects;  // survives into the returned draw's counters
      continue;
    }
    result.diag.duplicate_rejects += duplicate_rejects;
    result.diag.tail_candidates += tail_candidates;
    return result;
  }
  SampleDiagnostics diag;
  diag.proposals = options_.max_attempts;
  diag.duplicate_rejects = duplicate_rejects;
  diag.tail_candidates = tail_candidates;
  throw DistillationStarvation(
      "DistillationPlan: no candidate pool accepted within max_attempts "
      "(attempts=" +
          std::to_string(options_.max_attempts) +
          ", duplicate_rejects=" + std::to_string(duplicate_rejects) +
          ", candidate_budget=" + std::to_string(m_) +
          "; spectrum far from the Maclaurin-tight uniform case — raise "
          "candidate_budget)",
      diag);
}

}  // namespace pardpp
