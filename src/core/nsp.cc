#include "core/nsp.hh"

#include <cassert>

#include "util/rng.hh"

namespace sfetch
{

namespace
{

[[maybe_unused]] bool
isPow2(std::size_t x)
{
    return x && (x & (x - 1)) == 0;
}

} // namespace

NextStreamPredictor::NextStreamPredictor(const NspConfig &cfg)
    : cfg_(cfg), specPath_(cfg.dolc), commitPath_(cfg.dolc)
{
    assert(cfg_.firstEntries % cfg_.firstAssoc == 0);
    assert(cfg_.secondEntries % cfg_.secondAssoc == 0);
    first_.numSets = cfg_.firstEntries / cfg_.firstAssoc;
    first_.assoc = cfg_.firstAssoc;
    first_.resize(cfg_.firstEntries, cfg_.counterBits);
    second_.numSets = cfg_.secondEntries / cfg_.secondAssoc;
    while ((1ULL << secondIndexBits_) < second_.numSets)
        ++secondIndexBits_;
    second_.assoc = cfg_.secondAssoc;
    second_.resize(cfg_.secondEntries, cfg_.counterBits);
    assert(isPow2(first_.numSets));
    assert(isPow2(second_.numSets));
}

// ---- Table helpers ----

NextStreamPredictor::Entry *
NextStreamPredictor::Table::find(std::size_t set, std::uint64_t tag,
                                 std::uint64_t tick)
{
    const std::size_t base = set * assoc;
    for (unsigned w = 0; w < assoc; ++w) {
        if (valid[base + w] && tags[base + w] == tag) {
            Entry &e = ways[base + w];
            e.lastUse = tick;
            return &e;
        }
    }
    return nullptr;
}

void
NextStreamPredictor::Table::updateEntry(Entry &e,
                                        const StreamDescriptor &s)
{
    if (e.sameData(s)) {
        // Same stream observed again: strengthen.
        e.counter.increment();
    } else {
        // Conflicting stream for the same tag: weaken; replace the
        // payload only once the hysteresis counter drains to zero.
        e.counter.decrement();
        if (e.counter.value() == 0) {
            e.lenInsts = s.lenInsts;
            e.endType = s.endType;
            e.next = s.next;
            e.counter.set(1);
        }
    }
}

bool
NextStreamPredictor::Table::install(std::size_t set, std::uint64_t tag,
                                    const StreamDescriptor &s,
                                    std::uint64_t tick)
{
    const std::size_t base = set * assoc;
    std::size_t victim = base;
    bool have = false;
    for (unsigned w = 0; w < assoc; ++w) {
        if (!valid[base + w]) {
            victim = base + w;
            have = true;
            break;
        }
        const Entry &e = ways[base + w];
        const Entry &v = ways[victim];
        if (!have || e.counter.value() < v.counter.value() ||
            (e.counter.value() == v.counter.value() &&
             e.lastUse < v.lastUse)) {
            victim = base + w;
            have = true;
        }
    }

    Entry &e = ways[victim];
    if (valid[victim] && e.counter.value() > 0) {
        // Hysteresis protects the resident stream; the newcomer only
        // weakens it.
        e.counter.decrement();
        return false;
    }

    valid[victim] = 1;
    tags[victim] = tag;
    e.lenInsts = s.lenInsts;
    e.endType = s.endType;
    e.next = s.next;
    e.counter.set(1);
    e.lastUse = tick;
    return true;
}

// ---- indexing ----

std::size_t
NextStreamPredictor::firstSet(Addr start) const
{
    return (start / kInstBytes) & (first_.numSets - 1);
}

std::uint64_t
NextStreamPredictor::firstTag(Addr start) const
{
    return (start / kInstBytes) / first_.numSets;
}

std::size_t
NextStreamPredictor::secondSet(Addr start,
                               const DolcHistory &path) const
{
    return static_cast<std::size_t>(
        path.index(start, secondIndexBits_));
}

std::uint64_t
NextStreamPredictor::secondTag(Addr start,
                               const DolcHistory &path) const
{
    // Tag disambiguates both address and path within the set.
    return (path.signature(start) >> 40) ^ (start / kInstBytes);
}

// ---- prediction / training ----

StreamPrediction
NextStreamPredictor::predict(Addr start)
{
    ++lookups_;
    ++tick_;

    // Compute both probe points up front and prefetch their tag
    // state so the two associative scans overlap their host memory
    // latencies instead of serializing them.
    const std::size_t set1 = firstSet(start);
    first_.prefetchSet(set1);
    Entry *e2 = nullptr;
    if (cfg_.pathTableEnabled) {
        const std::size_t set2 = secondSet(start, specPath_);
        second_.prefetchSet(set2);
        e2 = second_.find(set2, secondTag(start, specPath_), tick_);
    }
    Entry *e1 = first_.find(set1, firstTag(start), tick_);

    StreamPrediction p;
    if (e2) {
        ++secondHits_;
        p.hit = true;
        p.fromPathTable = true;
        p.lenInsts = e2->lenInsts;
        p.endType = e2->endType;
        p.next = e2->next;
    } else if (e1) {
        ++firstHits_;
        p.hit = true;
        p.lenInsts = e1->lenInsts;
        p.endType = e1->endType;
        p.next = e1->next;
    } else {
        ++bothMiss_;
    }
    return p;
}

void
NextStreamPredictor::commitStream(const StreamDescriptor &s,
                                  bool mispredicted)
{
    ++tick_;

    const std::size_t set1 = firstSet(s.start);
    const std::uint64_t tag1 = firstTag(s.start);
    const std::size_t set2 = secondSet(s.start, commitPath_);
    const std::uint64_t tag2 = secondTag(s.start, commitPath_);
    first_.prefetchSet(set1);
    if (cfg_.pathTableEnabled)
        second_.prefetchSet(set2);

    Entry *e1 = first_.find(set1, tag1, tick_);
    Entry *e2 = cfg_.pathTableEnabled
        ? second_.find(set2, tag2, tick_) : nullptr;

    if (e1)
        Table::updateEntry(*e1, s);
    else
        first_.install(set1, tag1, s, tick_);

    if (e2) {
        Table::updateEntry(*e2, s);
    } else if (mispredicted && cfg_.pathTableEnabled) {
        // Cascade insertion: only streams the front end actually
        // mispredicts are upgraded into the path-correlated table;
        // streams the first table predicts fine never pollute it
        // ("avoiding aliasing", Section 3.2).
        if (second_.install(set2, tag2, s, tick_))
            ++upgrades_;
    }

    commitPath_.push(s.start);
}

std::uint64_t
NextStreamPredictor::storageBits() const
{
    // tag(~20) + length(8) + type(3) + target(32) + counter bits,
    // per entry.
    std::uint64_t per_entry = 20 + 8 + 3 + 32 + cfg_.counterBits;
    return (cfg_.firstEntries + cfg_.secondEntries) * per_entry;
}

StatSet
NextStreamPredictor::stats() const
{
    StatSet s;
    s.set("nsp.lookups", double(lookups_));
    s.set("nsp.first_hits", double(firstHits_));
    s.set("nsp.second_hits", double(secondHits_));
    s.set("nsp.misses", double(bothMiss_));
    s.set("nsp.upgrades", double(upgrades_));
    double denom = double(lookups_ ? lookups_ : 1);
    s.set("nsp.hit_rate",
          double(firstHits_ + secondHits_) / denom);
    return s;
}

} // namespace sfetch
