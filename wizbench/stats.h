/**
 * @file
 * The benchmark's own arithmetic: percentiles, the host factor,
 * open-loop latency and generator lateness, backlog-growth detection,
 * the max-rate ladder, and span self time. Header-only and free of engine dependencies so
 * stats_test.cc can check every formula in isolation.
 */

#ifndef WIZBENCH_STATS_H
#define WIZBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace wizbench {

/**
 * Nearest-rank percentile: the smallest sample with at least a
 * fraction @p q of the samples at or below it. 0 for no samples.
 */
inline double
percentile(std::vector<double> xs, double q)
{
    if (xs.empty()) return 0;
    std::sort(xs.begin(), xs.end());
    double rank = std::ceil(q * static_cast<double>(xs.size()));
    size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
    return xs[std::min(idx, xs.size() - 1)];
}

inline double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

/** Samples strictly above the nearest-rank percentile @p q. */
inline size_t
samplesBeyond(size_t n, double q)
{
    double rank = std::ceil(q * static_cast<double>(n));
    size_t idx = rank < 1 ? 1 : static_cast<size_t>(rank);
    return n > idx ? n - idx : 0;
}

/**
 * True if percentile @p q of @p n samples has at least ten samples
 * beyond it, so it is a measured tail and not the maximum in disguise.
 */
inline bool
tailIsResolved(size_t n, double q)
{
    return samplesBeyond(n, q) >= 10;
}

/** Fewest samples whose percentile @p q is resolved (tailIsResolved). */
inline size_t
samplesForTail(double q)
{
    size_t n = 1;
    while (!tailIsResolved(n, q)) n++;
    return n;
}

/**
 * Host factor of a stretch of a run: the gauge's time per op in it
 * (@p gaugeMs over @p ops) over the frozen @p nominalNs per op, raised
 * to @p elasticity (how much more than the gauge the measured work
 * slows). A timing taken in the stretch, divided by it, is the time at
 * nominal host speed. 1 when the gauge did not run.
 */
inline double
hostFactor(double gaugeMs, uint64_t ops, double nominalNs, double elasticity)
{
    if (ops == 0 || gaugeMs <= 0 || nominalNs <= 0) return 1;
    return std::pow(gaugeMs * 1e6 / static_cast<double>(ops) / nominalNs, elasticity);
}

/**
 * Open-loop latency of one request: from the time it was *due* to be
 * sent, not the time it was sent, so a stall that delays the
 * generator is charged to every request it delays.
 */
inline double
dueLatency(double dueMs, double doneMs)
{
    return doneMs - dueMs;
}

/** How late the generator sent a request (never negative). */
inline double
lateness(double dueMs, double sentMs)
{
    return std::max(0.0, sentMs - dueMs);
}

/**
 * True if a backlog series (outstanding requests sampled at each send,
 * in send order) keeps growing: the mean of its last quarter exceeds
 * both @p floor and twice the mean of its first quarter. A stable
 * queue below capacity fluctuates around a constant; an overloaded
 * one grows linearly with time.
 */
inline bool
backlogGrowing(const std::vector<double>& outstanding, double floor)
{
    size_t n = outstanding.size();
    if (n < 8) return false;
    size_t q = n / 4;
    double head = 0, tail = 0;
    for (size_t i = 0; i < q; i++) head += outstanding[i];
    for (size_t i = n - q; i < n; i++) tail += outstanding[i];
    head /= static_cast<double>(q);
    tail /= static_cast<double>(q);
    return tail > floor && tail > 2 * head;
}

/** One step of the max-rate ladder. */
struct LadderStep
{
    double rps = 0;
    double tailMs = 0;  ///< the step's latency percentile that is tested
    bool growing = false;
    uint64_t failed = 0;
};

/** True if a ladder step meets the latency limit with no backlog and
    no failed request. */
inline bool
stepPasses(const LadderStep& s, double limitMs)
{
    return s.failed == 0 && !s.growing && s.tailMs <= limitMs;
}

/**
 * The highest rate of an ascending ladder that passes, where every
 * lower step passed too (the ladder stops at its first failure). 0 if
 * the first step fails.
 */
inline double
maxRps(const std::vector<LadderStep>& ascending, double limitMs)
{
    double best = 0;
    for (const LadderStep& s : ascending) {
        if (!stepPasses(s, limitMs)) break;
        best = s.rps;
    }
    return best;
}

/** One recorded span: a call into a layer, timed from outside. */
struct Span
{
    std::string name;
    double startMs = 0;
    double endMs = 0;
    int32_t parent = -1;  ///< index of the enclosing span, -1 at top
    uint32_t run = 0;     ///< the pass (run id) the span belongs to
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by its direct children (overlapping children are
 * merged, and children are clipped to the parent's interval).
 */
inline std::vector<double>
selfTimes(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span& s : spans) {
        if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
            const Span& p = spans[s.parent];
            double a = std::max(s.startMs, p.startMs);
            double b = std::min(s.endMs, p.endMs);
            if (b > a) kids[s.parent].push_back({a, b});
        }
    }
    std::vector<double> out(spans.size());
    for (size_t i = 0; i < spans.size(); i++) {
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0, curA = 0, curB = 0;
        bool open = false;
        for (auto [a, b] : iv) {
            if (open && a <= curB) {
                curB = std::max(curB, b);
                continue;
            }
            if (open) covered += curB - curA;
            curA = a;
            curB = b;
            open = true;
        }
        if (open) covered += curB - curA;
        out[i] = (spans[i].endMs - spans[i].startMs) - covered;
    }
    return out;
}

} // namespace wizbench

#endif // WIZBENCH_STATS_H
