/**
 * @file
 * Lightweight statistics: counters, running means, histograms and the
 * aggregation helpers (harmonic mean of IPC over a suite) used by the
 * experiment harness.
 */

#ifndef SFETCH_UTIL_STATS_HH
#define SFETCH_UTIL_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sfetch
{

/**
 * Bounded histogram over non-negative integer samples. Samples above
 * the bound fall into an overflow bucket but still contribute to the
 * mean.
 */
class Histogram
{
  public:
    explicit Histogram(std::size_t max_bucket = 128)
        : buckets_(max_bucket + 1, 0)
    {}

    void
    sample(std::uint64_t value, std::uint64_t count = 1)
    {
        std::size_t b = value < buckets_.size() - 1
            ? static_cast<std::size_t>(value) : buckets_.size() - 1;
        buckets_[b] += count;
        sum_ += value * count;
        n_ += count;
        if (n_ == count || value < min_)
            min_ = value;
        if (value > max_)
            max_ = value;
    }

    std::uint64_t count() const { return n_; }
    std::uint64_t sum() const { return sum_; }
    double mean() const { return n_ ? double(sum_) / double(n_) : 0.0; }
    std::uint64_t minValue() const { return n_ ? min_ : 0; }
    std::uint64_t maxValue() const { return max_; }

    /** Number of samples in bucket @p b (last bucket = overflow). */
    std::uint64_t bucket(std::size_t b) const { return buckets_.at(b); }

    /**
     * Smallest value v such that at least frac of samples are <= v.
     * Samples in the overflow bucket have no exact value, so a
     * percentile landing there reports maxValue() — the tightest
     * bound the histogram still knows — rather than the (possibly
     * far smaller) overflow bucket index.
     */
    std::uint64_t
    percentile(double frac) const
    {
        if (n_ == 0)
            return 0;
        std::uint64_t target =
            static_cast<std::uint64_t>(frac * double(n_));
        std::uint64_t seen = 0;
        for (std::size_t b = 0; b + 1 < buckets_.size(); ++b) {
            seen += buckets_[b];
            if (seen > target)
                return b;
        }
        return max_;
    }

    /**
     * Fold another histogram into this one. Exact-value buckets are
     * added index-wise; the source's overflow bucket (whose samples
     * have no exact value) and any source buckets beyond this
     * histogram's bound land in this histogram's overflow bucket.
     */
    void
    merge(const Histogram &other)
    {
        if (other.n_ == 0)
            return;
        for (std::size_t b = 0; b < other.buckets_.size(); ++b) {
            bool src_overflow = b == other.buckets_.size() - 1;
            std::size_t dst = src_overflow || b >= buckets_.size() - 1
                ? buckets_.size() - 1 : b;
            buckets_[dst] += other.buckets_[b];
        }
        if (n_ == 0 || other.min_ < min_)
            min_ = other.min_;
        if (other.max_ > max_)
            max_ = other.max_;
        sum_ += other.sum_;
        n_ += other.n_;
    }

    void
    reset()
    {
        for (auto &b : buckets_)
            b = 0;
        sum_ = n_ = max_ = 0;
        min_ = 0;
    }

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t sum_ = 0;
    std::uint64_t n_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/** Harmonic mean; the paper reports harmonic-mean IPC over SPECint. */
double harmonicMean(const std::vector<double> &values);

/** Arithmetic mean. */
double arithmeticMean(const std::vector<double> &values);

/** Geometric mean. */
double geometricMean(const std::vector<double> &values);

/**
 * Mean flavour selector for suite-level aggregation: the paper uses
 * harmonic means for IPC and arithmetic means for rates.
 */
enum class MeanKind
{
    Arithmetic,
    Harmonic,
    Geometric,
};

/** Dispatch to the matching mean function. */
double meanOf(const std::vector<double> &values, MeanKind kind);

/**
 * A named scalar statistics dictionary used for dumping simulation
 * results in a stable order.
 */
class StatSet
{
  public:
    void
    set(const std::string &name, double value)
    {
        values_[name] = value;
    }

    double
    get(const std::string &name) const
    {
        auto it = values_.find(name);
        return it == values_.end() ? 0.0 : it->second;
    }

    bool
    has(const std::string &name) const
    {
        return values_.count(name) != 0;
    }

    const std::map<std::string, double> &all() const { return values_; }

    bool
    operator==(const StatSet &other) const
    {
        return values_ == other.values_;
    }

    bool operator!=(const StatSet &other) const { return !(*this == other); }

    /** Render as "name value" lines. */
    std::string dump() const;

  private:
    std::map<std::string, double> values_;
};

} // namespace sfetch

#endif // SFETCH_UTIL_STATS_HH
