/**
 * @file
 * parallelFor: coverage of the index range, inline edge cases and
 * exception forwarding.
 */

#include <atomic>
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
