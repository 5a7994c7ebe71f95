/**
 * @file
 * The host gauge: a fixed dispatch loop, independent of the engine,
 * timed next to the workload so that its timings can be stated at a
 * fixed host speed (see README.md, "Host normalisation").
 *
 * On a shared host, other tenants slow branch-heavy code such as an
 * interpreter's dispatch loop by up to ~40 % for minutes at a time,
 * while plain ALU and memory-bandwidth loops hardly move. Measured on
 * a 4-vCPU VM (Xeon, 2.1 GHz) over an 80 s kernels run: a pass's time
 * correlated 0.92 with this loop's time, 0.62 with a 32 MiB pointer
 * chase, 0.28 with a 1 MiB one and not at all with an xorshift loop.
 *
 * The loop runs a fixed 4096-op program of 16 handlers through
 * computed-goto dispatch, one indirect branch per op, as a threaded
 * interpreter does. The program is drawn once from a fixed seed, so
 * the gauge does the same work in every build and every run.
 */

#ifndef WIZBENCH_GAUGE_H
#define WIZBENCH_GAUGE_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wizbench {

class HostGauge
{
  public:
    /** Ops in one repetition of the program. */
    static constexpr size_t kOps = 4096;

    HostGauge() : _prog(kOps)
    {
        uint64_t x = 0x5eed6a0e;
        for (uint8_t& op : _prog) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            op = static_cast<uint8_t>(x % 16);
        }
    }

    /** Runs the program @p reps times; returns the time it took, ms,
        and adds it to the totals. */
    double
    run(uint32_t reps)
    {
        auto t0 = std::chrono::steady_clock::now();
        uint64_t acc = _acc;
        const uint8_t* prog = _prog.data();
        static void* const kLabels[16] = {&&h0,  &&h1,  &&h2,  &&h3, &&h4,  &&h5,
                                          &&h6,  &&h7,  &&h8,  &&h9, &&h10, &&h11,
                                          &&h12, &&h13, &&h14, &&h15};
        for (uint32_t rep = 0; rep < reps; rep++) {
            size_t pc = 0;
            goto* kLabels[prog[pc]];
#define WIZBENCH_GAUGE_OP(k, expr)                                                      \
    h##k : acc = (expr);                                                                \
    if (++pc == kOps) goto done;                                                        \
    goto* kLabels[prog[pc]];
            WIZBENCH_GAUGE_OP(0, acc + 1)
            WIZBENCH_GAUGE_OP(1, acc * 3)
            WIZBENCH_GAUGE_OP(2, acc ^ 0x55)
            WIZBENCH_GAUGE_OP(3, acc - 7)
            WIZBENCH_GAUGE_OP(4, acc + pc)
            WIZBENCH_GAUGE_OP(5, (acc >> 1) | 1)
            WIZBENCH_GAUGE_OP(6, acc * 5 + 1)
            WIZBENCH_GAUGE_OP(7, acc ^ pc)
            WIZBENCH_GAUGE_OP(8, acc + 11)
            WIZBENCH_GAUGE_OP(9, acc * 7)
            WIZBENCH_GAUGE_OP(10, acc ^ 0xaa)
            WIZBENCH_GAUGE_OP(11, acc - 3)
            WIZBENCH_GAUGE_OP(12, acc + 2 * pc)
            WIZBENCH_GAUGE_OP(13, acc << 1)
            WIZBENCH_GAUGE_OP(14, acc * 9 + 3)
            WIZBENCH_GAUGE_OP(15, acc ^ (pc << 3))
#undef WIZBENCH_GAUGE_OP
        done:;
        }
        _acc = acc;
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        _ms += ms;
        _ops += static_cast<uint64_t>(reps) * kOps;
        return ms;
    }

    /** Time and ops since the last reset. */
    double ms() const { return _ms; }
    uint64_t ops() const { return _ops; }
    void
    reset()
    {
        _ms = 0;
        _ops = 0;
    }

  private:
    std::vector<uint8_t> _prog;
    uint64_t _acc = 1;  ///< the loop's result, kept so the loop stays
    double _ms = 0;
    uint64_t _ops = 0;
};

}  // namespace wizbench

#endif
