/**
 * @file
 * Unit tests of the benchmark's arithmetic (stats.h). Exits 0 when
 * every check passes; prints each failing check and exits 1 otherwise.
 * Run with `python3 wizbench/selftest.py`.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void
check(bool ok, const char* what)
{
    if (!ok) {
        std::printf("FAIL: %s\n", what);
        failures++;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

void
testPercentiles()
{
    using namespace wizbench;
    std::vector<double> xs;
    for (int i = 100; i >= 1; i--) xs.push_back(i);  // unsorted input
    check(near(percentile(xs, 0.5), 50), "p50 of 1..100 is 50");
    check(near(percentile(xs, 0.9), 90), "p90 of 1..100 is 90");
    check(samplesForTail(0.9) == 100, "p90 needs 100 samples");
    check(samplesForTail(0.95) == 200, "p95 needs 200 samples");
    check(samplesForTail(0.99) == 1000, "p99 needs 1000 samples");
    check(near(hostFactor(5, 1000000, 5, 1.5), 1), "a gauge at nominal speed gives 1");
    check(near(hostFactor(6.5, 1000000, 5, 1), 1.3), "a gauge 30 % slow gives 1.3");
    check(near(hostFactor(0, 0, 5, 1.5), 1), "no gauge ops give 1");
    check(near(26 / hostFactor(6.5, 1000000, 5, 1), 20), "a 26 ms run at 1.3 is 20 ms");
    check(near(hostFactor(6.05, 1000000, 5, 2), 1.21 * 1.21), "elasticity 2 squares the slowdown");
    check(near(percentile(xs, 0.99), 99), "p99 of 1..100 is 99");
    check(near(percentile(xs, 1.0), 100), "p100 is the maximum");
    check(near(percentile(xs, 0.0), 1), "p0 is the minimum");
    check(near(percentile({}, 0.5), 0), "no samples gives 0");
    check(near(median({3, 1, 2}), 2), "median of three");

    // The tail rule: at least ten samples strictly beyond the tail.
    check(samplesBeyond(100, 0.9) == 10, "p90 of 100 has 10 beyond");
    check(tailIsResolved(100, 0.9), "p90 resolved at 100 samples");
    check(!tailIsResolved(99, 0.9), "p90 unresolved at 99 samples");
    check(!tailIsResolved(999, 0.99), "p99 unresolved at 999 samples");
    check(tailIsResolved(1000, 0.99), "p99 resolved at 1000 samples");
    check(samplesBeyond(5, 0.99) == 0, "p99 of 5 is the maximum");
}

void
testOpenLoop()
{
    using namespace wizbench;
    // Due at 10, sent late at 13, done at 20: the request waited 10 ms
    // from its due time, 3 of which the generator caused.
    check(near(dueLatency(10, 20), 10), "latency counts from due time");
    check(near(lateness(10, 13), 3), "generator lateness");
    check(near(lateness(10, 9.5), 0), "early send is not negative lateness");

    // A stall: three requests due 1 ms apart, all sent and served at 10.
    std::vector<double> due = {1, 2, 3};
    double done = 10;
    std::vector<double> lat;
    for (double d : due) lat.push_back(dueLatency(d, done));
    check(near(percentile(lat, 1.0), 9), "a stall is charged to every delayed request");
}

void
testBacklogAndLadder()
{
    using namespace wizbench;
    std::vector<double> steady, growing, shortSeries = {0, 50, 100};
    for (int i = 0; i < 400; i++) {
        steady.push_back(i % 5);
        growing.push_back(i / 4.0);
    }
    check(!backlogGrowing(steady, 6), "a fluctuating queue is not growing");
    check(backlogGrowing(growing, 6), "a linearly growing queue is detected");
    check(!backlogGrowing(shortSeries, 6), "too few samples never count as growth");
    std::vector<double> smallRamp;
    for (int i = 0; i < 400; i++) smallRamp.push_back(i < 200 ? 1 : 3);
    check(!backlogGrowing(smallRamp, 6), "growth below the floor is ignored");

    std::vector<LadderStep> steps = {
        {100, 5, false, 0},
        {200, 8, false, 0},
        {300, 12, false, 0},
        {400, 60, false, 0},   // misses the 50 ms limit
        {500, 9, false, 0},    // never reached: the ladder stopped
    };
    check(near(maxRps(steps, 50), 300), "ladder stops at the first miss");
    steps[2].growing = true;
    check(near(maxRps(steps, 50), 200), "a growing backlog fails a step");
    steps[1].failed = 1;
    check(near(maxRps(steps, 50), 100), "a failed request fails a step");
    steps[0].tailMs = 51;
    check(near(maxRps(steps, 50), 0), "no passing step gives 0");
}

void
testSelfTime()
{
    using namespace wizbench;
    std::vector<Span> spans = {
        {"run", 0, 100, -1, 0},
        {"decode", 10, 20, 0, 0},
        {"exec", 30, 70, 0, 0},
        {"probe", 40, 50, 2, 0},   // grandchild: charged to exec only
        {"overlap", 60, 80, 0, 0}, // overlaps exec: merged, not double-counted
        {"spill", 90, 120, 0, 0},  // ends after the parent: clipped
    };
    std::vector<double> self = selfTimes(spans);
    // run: 100 - |[10,20] u [30,80] u [90,100]| = 100 - 70.
    check(near(self[0], 30), "parent self time subtracts merged children");
    check(near(self[1], 10), "leaf self time is its duration");
    check(near(self[2], 30), "child self time subtracts its own children");
    check(near(self[3], 10), "grandchild is a leaf");
    check(near(self[5], 30), "a spilled child keeps its own duration");
}

} // namespace

int
main()
{
    testPercentiles();
    testOpenLoop();
    testBacklogAndLadder();
    testSelfTime();
    if (failures == 0) std::printf("stats_test: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
