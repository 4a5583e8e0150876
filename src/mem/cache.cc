#include "cache.hh"

#include <bit>

#include "sim/logging.hh"

namespace xpc::mem {

Cache::Cache(const CacheParams &p, Cache *n, Cycles mem_latency)
    : params(p), next(n), memLatency(mem_latency)
{
    panic_if(p.lineBytes == 0 || (p.lineBytes & (p.lineBytes - 1)) != 0,
             "cache line size must be a power of two");
    uint64_t total_lines = p.sizeBytes / p.lineBytes;
    panic_if(p.assoc == 0 || total_lines % p.assoc != 0,
             "bad cache geometry");
    numSets = uint32_t(total_lines / p.assoc);
    panic_if((numSets & (numSets - 1)) != 0,
             "cache set count must be a power of two, got %u", numSets);
    lineShift = uint32_t(std::countr_zero(p.lineBytes));
    setShift = uint32_t(std::countr_zero(numSets));
    lines.resize(total_lines);
    stats.addCounter("hits", &hits);
    stats.addCounter("misses", &misses);
    stats.addCounter("writebacks", &writebacks);
}

Cycles
Cache::fillLine(Line *ways, uint64_t set_idx, uint64_t line_num,
                bool is_write)
{
    misses.inc();
    Line *victim = &ways[0];
    for (uint32_t i = 0; i < params.assoc; i++) {
        Line &l = ways[i];
        if (!l.valid) {
            victim = &l;
            break;
        }
        if (l.lruStamp < victim->lruStamp)
            victim = &l;
    }

    Cycles cost = params.hitLatency;
    if (victim->valid && victim->dirty) {
        writebacks.inc();
        uint64_t victim_addr = ((victim->tag << setShift) | set_idx)
                               << lineShift;
        cost += next ? next->access(victim_addr, params.lineBytes, true)
                     : memLatency;
    }
    cost += next ? next->access(line_num << lineShift, params.lineBytes,
                                false)
                 : memLatency;

    *victim = Line{true, is_write, line_num >> setShift, ++clock};
    return cost;
}

// The hit path runs inline over the whole line run. It is exact: the
// clock still advances once per line in address order, misses go
// through fillLine at the same point of the run, and only the hits
// counter is batched, which nothing reads until the call returns (a
// miss recurses into the next level, never back into this one).
Cycles
Cache::access(PAddr paddr, uint64_t len, bool is_write)
{
    if (len == 0)
        return Cycles(0);
    uint64_t first = paddr >> lineShift;
    uint64_t last = (paddr + len - 1) >> lineShift;
    uint64_t set_mask = numSets - 1;
    uint32_t assoc = params.assoc;
    uint64_t run_hits = 0;
    Cycles total(0);
    for (uint64_t line = first; line <= last; line++) {
        uint64_t set_idx = line & set_mask;
        uint64_t tag = line >> setShift;
        Line *ways = &lines[set_idx * assoc];
        Line *hit = nullptr;
        for (uint32_t i = 0; i < assoc; i++) {
            if (ways[i].valid && ways[i].tag == tag) {
                hit = &ways[i];
                break;
            }
        }
        if (hit) {
            run_hits++;
            hit->lruStamp = ++clock;
            hit->dirty |= is_write;
            total += params.hitLatency;
        } else {
            total += fillLine(ways, set_idx, line, is_write);
        }
    }
    hits.inc(run_hits);
    return total;
}

void
Cache::invalidateAll()
{
    for (auto &l : lines)
        l = Line{};
}

} // namespace xpc::mem
