/**
 * @file
 * parallelFor and runTeam: coverage of the index range and the team,
 * inline edge cases, barrier phases and exception forwarding.
 */

#include <atomic>
#include <barrier>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/parallel.hh"

using namespace specee;

TEST(ParallelFor, RunsEveryIndexExactlyOnce)
{
    for (size_t n : {2u, 3u, 17u, 1000u}) {
        std::vector<std::atomic<int>> hits(n);
        parallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
}

TEST(ParallelFor, ZeroItemsNeverCallsFn)
{
    int calls = 0;
    parallelFor(0, [&](size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, OneItemRunsOnTheCallersThread)
{
    std::thread::id ran_on;
    size_t index = 99;
    parallelFor(1, [&](size_t i) {
        ran_on = std::this_thread::get_id();
        index = i;
    });
    EXPECT_EQ(index, 0u);
    EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ParallelFor, RethrowsAfterJoining)
{
    std::atomic<int> in_flight{0};
    EXPECT_THROW(parallelFor(64,
                             [&](size_t i) {
                                 in_flight.fetch_add(1);
                                 const bool fail = i == 5;
                                 in_flight.fetch_sub(1);
                                 if (fail)
                                     throw std::runtime_error("item 5");
                             }),
                 std::runtime_error);
    EXPECT_EQ(in_flight.load(), 0);
}

TEST(RunTeam, TeamOfOneRunsInline)
{
    std::thread::id ran_on;
    int calls = 0;
    runTeam(1, [&](size_t m, std::barrier<> &sync) {
        EXPECT_EQ(m, 0u);
        sync.arrive_and_wait(); // a team of one never waits
        ran_on = std::this_thread::get_id();
        ++calls;
    });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(RunTeam, EveryMemberRunsOnceOnItsOwnThread)
{
    for (size_t size : {2u, 3u, 4u, 7u}) {
        std::vector<std::atomic<int>> hits(size);
        std::vector<std::thread::id> ids(size);
        runTeam(size, [&](size_t m, std::barrier<> &) {
            hits[m].fetch_add(1);
            ids[m] = std::this_thread::get_id();
        });
        for (size_t m = 0; m < size; ++m)
            EXPECT_EQ(hits[m].load(), 1) << "size=" << size << " m=" << m;
        EXPECT_EQ(ids[0], std::this_thread::get_id());
        for (size_t m = 1; m < size; ++m)
            EXPECT_NE(ids[m], ids[0]) << "size=" << size << " m=" << m;
    }
}

// Each phase reads what every member wrote in the phase before, which
// only the barrier makes safe (TSan checks the ordering too).
TEST(RunTeam, BarrierOrdersThePhases)
{
    constexpr size_t kSize = 4;
    constexpr size_t kPhases = 50;
    std::vector<size_t> slot(kSize, 0);
    std::vector<size_t> mismatches(kSize, 0);
    runTeam(kSize, [&](size_t m, std::barrier<> &sync) {
        for (size_t p = 1; p <= kPhases; ++p) {
            slot[m] = p;
            sync.arrive_and_wait();
            for (size_t o = 0; o < kSize; ++o)
                mismatches[m] += slot[o] != p;
            sync.arrive_and_wait();
        }
    });
    for (size_t m = 0; m < kSize; ++m)
        EXPECT_EQ(mismatches[m], 0u) << "member " << m;
}

// A member that throws leaves the barrier: the others finish every
// phase instead of waiting on it, and the exception reaches the
// caller after all have joined.
TEST(RunTeam, ThrowingMemberNeitherDeadlocksNorGetsLost)
{
    for (size_t thrower : {0u, 2u}) {
        std::atomic<int> finished{0};
        EXPECT_THROW(runTeam(3,
                             [&](size_t m, std::barrier<> &sync) {
                                 for (int p = 0; p < 20; ++p) {
                                     if (m == thrower && p == 5)
                                         throw std::runtime_error("member");
                                     sync.arrive_and_wait();
                                 }
                                 finished.fetch_add(1);
                             }),
                     std::runtime_error);
        EXPECT_EQ(finished.load(), 2) << "thrower " << thrower;
    }
}
