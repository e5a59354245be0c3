#include "workload/branch_model.hh"

#include <cassert>
#include <cmath>

namespace sfetch
{

namespace
{

/** Uniform double in [0,1) from a 64-bit hash. */
double
hash01(std::uint64_t h)
{
    return double(h >> 11) * (1.0 / 9007199254740992.0); // 2^53
}

/**
 * Deterministic boolean function of a *few* recent history bits,
 * mimicking real inter-branch correlation: the branch outcome
 * depends on 1..3 earlier branch outcomes through a fixed per-branch
 * truth table whose entries are drawn Bernoulli(p). Such functions
 * are learnable by history-indexed predictors (a handful of patterns
 * per branch) while retaining per-pattern determinism.
 */
bool
correlatedOutcome(std::uint64_t history, unsigned history_bits,
                  std::uint64_t seed, double p)
{
    if (history_bits == 0)
        return hash01(mix64(seed)) < p;
    unsigned k = 1 + static_cast<unsigned>(mix64(seed) % 5); // 1..5
    std::uint64_t idx = 0;
    int ones = 0;
    for (unsigned i = 0; i < k; ++i) {
        unsigned pos = static_cast<unsigned>(
            mix64(seed + 0x1234 + i) % history_bits);
        std::uint64_t bit = (history >> pos) & 1;
        idx |= bit << i;
        ones += static_cast<int>(bit);
    }
    // Truth-table entry for this pattern, fixed per branch. The
    // per-pattern probability is tilted monotonically in the number
    // of set bits, so the function has linear structure (learnable
    // by a perceptron) on top of the exact table (learnable by
    // history-indexed counters).
    double tilt = 0.35 * (2.0 * ones - double(k)) / double(k);
    double p_idx = p + tilt;
    if (p_idx < 0.02)
        p_idx = 0.02;
    if (p_idx > 0.98)
        p_idx = 0.98;
    return hash01(mix64(seed ^ (0xbeefULL + idx * 0x9e37ULL)))
        < p_idx;
}

} // namespace

void
BranchIndex::insert(BlockId id, std::uint32_t slot)
{
    assert(id != kNoBlock && find(id) == kAbsent);
    if (2 * (size_ + 1) > entries_.size()) {
        // Double (from 4) and re-place every entry.
        std::vector<Entry> old = std::move(entries_);
        entries_.assign(old.empty() ? 4 : 2 * old.size(), Entry{});
        shift_ = 32;
        for (std::size_t n = entries_.size(); n > 1; n >>= 1)
            --shift_;
        size_ = 0;
        for (const Entry &e : old)
            if (e.block != kNoBlock)
                insert(e.block, e.slot);
    }
    const std::size_t mask = entries_.size() - 1;
    std::size_t i = home(id);
    while (entries_[i].block != kNoBlock)
        i = (i + 1) & mask;
    entries_[i] = Entry{id, slot};
    ++size_;
}

void
WorkloadModel::setCond(BlockId id, CondModel m)
{
    const std::uint32_t slot = condIndex_.find(id);
    if (slot != BranchIndex::kAbsent) {
        cond_[slot] = m;
        return;
    }
    condIndex_.insert(id, static_cast<std::uint32_t>(cond_.size()));
    cond_.push_back(m);
}

void
WorkloadModel::setIndirect(BlockId id, IndirectModel m)
{
    const std::uint32_t slot = indirectIndex_.find(id);
    if (slot != BranchIndex::kAbsent) {
        indirect_[slot] = std::move(m);
        return;
    }
    indirectIndex_.insert(id,
                          static_cast<std::uint32_t>(indirect_.size()));
    indirect_.push_back(std::move(m));
}

void
WorkloadModel::shrinkToFit()
{
    cond_.shrink_to_fit();
    indirect_.shrink_to_fit();
}

std::size_t
WorkloadModel::bytes() const
{
    std::size_t bytes = cond_.capacity() * sizeof(CondModel) +
        condIndex_.bytes() + indirect_.capacity() * sizeof(IndirectModel) +
        indirectIndex_.bytes();
    for (const IndirectModel &m : indirect_)
        bytes += m.weights.capacity() * sizeof(double);
    return bytes;
}

bool
WorkloadModel::choosePrimary(BlockId id, Pcg32 &rng)
{
    // Unmodelled conditionals default to a weak not-primary bias so
    // that hand-built test programs remain runnable.
    bool primary;
    const std::uint32_t slot = condIndex_.find(id);
    if (slot == BranchIndex::kAbsent) {
        primary = rng.nextBool(0.3);
    } else {
        CondModel &m = cond_[slot];
        switch (m.kind) {
          case CondModel::Kind::Loop:
            if (m.remainingTrips == 0) {
                // Entering the loop: draw this activation's trip count.
                double lo = m.meanTrips * (1.0 - m.tripJitter);
                double hi = m.meanTrips * (1.0 + m.tripJitter);
                double trips = lo + rng.nextDouble() * (hi - lo);
                m.remainingTrips = trips < 1.0
                    ? 1 : static_cast<std::uint32_t>(std::lround(trips));
            }
            --m.remainingTrips;
            // Primary successor = stay in the loop.
            primary = m.remainingTrips > 0;
            break;
          case CondModel::Kind::Biased:
            primary = rng.nextBool(m.pPrimary);
            break;
          case CondModel::Kind::Correlated:
            if (rng.nextBool(m.noise)) {
                primary = rng.nextBool(m.pPrimary);
            } else {
                std::uint64_t h = m.onCases ? case_history_
                                            : history_;
                primary = correlatedOutcome(h, m.historyBits,
                                            m.seed, m.pPrimary);
            }
            break;
          case CondModel::Kind::Phased: {
            if (m.phaseLeft == 0) {
                // Flip phase; run lengths are scaled so the duty
                // cycle over time approximates pPrimary.
                m.phasePrimary = !m.phasePrimary;
                double mean = m.runLenMean * 2.0 *
                    (m.phasePrimary ? m.pPrimary
                                    : 1.0 - m.pPrimary);
                if (mean < 1.0)
                    mean = 1.0;
                m.phaseLeft = rng.nextGeometric(mean, 1u << 16);
            }
            --m.phaseLeft;
            primary = m.phasePrimary;
            break;
          }
          default:
            primary = false;
            break;
        }
    }
    history_ = (history_ << 1) | (primary ? 1u : 0u);
    return primary;
}

BlockId
WorkloadModel::chooseIndirect(BlockId id, BlockIdSpan targets,
                              Pcg32 &rng)
{
    assert(!targets.empty());
    const std::uint32_t slot = indirectIndex_.find(id);
    if (slot == BranchIndex::kAbsent)
        return targets[rng.nextBounded(
            static_cast<std::uint32_t>(targets.size()))];

    const IndirectModel &m = indirect_[slot];
    assert(m.weights.size() == targets.size());

    double u;
    if (rng.nextBool(m.correlation)) {
        // Markov-like selection over the last two case choices —
        // interpreter dispatch structure, learnable at the path
        // level but invisible to direction histories.
        std::uint64_t h = mix64((case_history_ & 0x3f) ^ m.seed);
        u = double(h >> 11) * (1.0 / 9007199254740992.0);
    } else {
        u = rng.nextDouble();
    }

    double total = 0.0;
    for (double w : m.weights)
        total += w;
    double x = u * total;
    std::size_t chosen = m.weights.size() - 1;
    for (std::size_t i = 0; i < m.weights.size(); ++i) {
        x -= m.weights[i];
        if (x <= 0.0) {
            chosen = i;
            break;
        }
    }
    case_history_ = (case_history_ << 3) | (chosen & 0x7);
    return targets[chosen];
}

void
WorkloadModel::reset()
{
    history_ = 0;
    case_history_ = 0;
    for (CondModel &m : cond_) {
        m.remainingTrips = 0;
        m.phaseLeft = 0;
        m.phasePrimary = false;
    }
}

} // namespace sfetch
