#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

namespace sim {

/// Streaming summary statistics (Welford) plus min/max.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  /// Combines another stream into this one (Chan et al. parallel
  /// Welford): count, mean, variance, min and max afterwards equal the
  /// exact pooled statistics of both streams. campaign::Engine pools
  /// per-scenario summaries into its campaign-wide summary this way;
  /// multi-process campaign shards can combine partial reports the
  /// same way.
  void merge(const RunningStats& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const double delta = o.mean_ - mean_;
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(o.n_);
    const double nab = na + nb;
    m2_ += o.m2_ + delta * delta * (na * nb / nab);
    mean_ += delta * (nb / nab);
    n_ += o.n_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  /// Raw second central moment (sum of squared deviations) — together
  /// with count/mean/min/max this is the full internal state, which is
  /// what remote campaign slices serialize so a merged report is
  /// bit-identical to the in-process run.
  double m2() const { return m2_; }

  /// Reconstructs a stream from its serialized internal state (the
  /// inverse of count/mean/m2/min/max). n == 0 yields a fresh stream
  /// regardless of the other fields.
  static RunningStats from_parts(std::uint64_t n, double mean, double m2,
                                 double min, double max) {
    RunningStats s;
    if (n == 0) return s;
    s.n_ = n;
    s.mean_ = mean;
    s.m2_ = m2;
    s.min_ = min;
    s.max_ = max;
    return s;
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact integer histogram (value -> count); suitable for latency
/// distributions where the support is small.
class Histogram {
 public:
  Histogram() = default;
  // The last-bin cache points into bins_, so copies and moves must drop
  // it rather than inherit a pointer into another histogram's map.
  Histogram(const Histogram& o) : bins_(o.bins_) {}
  Histogram(Histogram&& o) noexcept : bins_(std::move(o.bins_)) {
    o.last_bin_ = nullptr;
  }
  Histogram& operator=(const Histogram& o) {
    bins_ = o.bins_;
    last_bin_ = nullptr;
    return *this;
  }
  Histogram& operator=(Histogram&& o) noexcept {
    bins_ = std::move(o.bins_);
    last_bin_ = nullptr;
    o.last_bin_ = nullptr;
    return *this;
  }

  /// Amortized O(1) for runs of the same value (one compare + one
  /// increment): the last-touched bin is cached, so sampling a
  /// slow-moving quantity every cycle (e.g. link occupancy) costs no
  /// map lookup. Nodes are never erased, so the cache only goes stale
  /// through assignment, which drops it.
  void add(std::uint64_t value) {
    if (last_bin_ == nullptr || value != last_value_) {
      last_bin_ = &bins_[value];
      last_value_ = value;
    }
    ++*last_bin_;
  }

  /// Combines another histogram into this one (exact: integer counts).
  void merge(const Histogram& o) {
    for (const auto& [v, c] : o.bins_) bins_[v] += c;
  }

  /// Bulk-adds `count` occurrences of `value` — the deserialization
  /// inverse of bins() (remote campaign slices rebuild histograms from
  /// their serialized (value, count) pairs through this).
  void add_count(std::uint64_t value, std::uint64_t count) {
    if (count != 0) bins_[value] += count;
  }

  /// Replaces the bins with what add_count() over an empty histogram
  /// builds from `n` (value, count) pairs, each read by next(value,
  /// count). Values that arrive in increasing order, as bins() lists
  /// them, are merged in one walk that keeps the node of every value
  /// that stays: a snapshot restore into a histogram of the same shape
  /// allocates nothing.
  template <typename Next>
  void assign_bins(std::uint64_t n, Next&& next) {
    last_bin_ = nullptr;
    auto it = bins_.begin();  // old bins not yet matched, all past `last`
    bool any = false;
    std::uint64_t last = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t value = 0;
      std::uint64_t count = 0;
      next(value, count);
      if (count == 0) continue;
      if (any && value <= last) {  // out of order: add to the new bins
        bins_[value] += count;
        continue;
      }
      while (it != bins_.end() && it->first < value) it = bins_.erase(it);
      if (it == bins_.end() || it->first != value) {
        it = bins_.emplace_hint(it, value, 0);
      }
      it->second = count;
      ++it;
      any = true;
      last = value;
    }
    bins_.erase(it, bins_.end());
  }

  std::uint64_t count(std::uint64_t value) const {
    auto it = bins_.find(value);
    return it == bins_.end() ? 0 : it->second;
  }

  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (auto& [v, c] : bins_) t += c;
    return t;
  }

  /// p in [0,1]; returns the smallest value whose CDF >= p.
  std::uint64_t percentile(double p) const {
    const std::uint64_t t = total();
    if (t == 0) return 0;
    const auto target =
        static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(t)));
    std::uint64_t seen = 0;
    for (auto& [v, c] : bins_) {
      seen += c;
      if (seen >= target) return v;
    }
    return bins_.rbegin()->first;
  }

  const std::map<std::uint64_t, std::uint64_t>& bins() const { return bins_; }

 private:
  std::map<std::uint64_t, std::uint64_t> bins_;
  std::uint64_t* last_bin_ = nullptr;
  std::uint64_t last_value_ = 0;
};

}  // namespace sim
