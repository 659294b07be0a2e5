/**
 * @file
 * Fork-join helpers on the host's cores: a loop over an index range
 * (parallelFor) and a team of threads that meet at a barrier
 * (runTeam).
 *
 * Callers keep results deterministic by giving each index or member
 * its own output slots and combining the slots in order after the
 * call; which thread runs an index is unspecified.
 */

#ifndef SPECEE_UTIL_PARALLEL_HH
#define SPECEE_UTIL_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace specee {

/** Threads the host runs at once (at least 1). */
inline size_t
hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * Run fn(i) once for every i in [0, n), on up to
 * hardware_concurrency() threads (capped at n), and return when all
 * have finished. The calling thread takes indices too, so n <= 1 (or
 * a one-core host) runs everything inline without spawning. Indices
 * are handed out one at a time in increasing order, so uneven items
 * balance and index 0 starts first (put the longest item there). The
 * first exception an fn throws is rethrown here after every thread
 * has joined; indices not yet started are then skipped.
 */
template <typename Fn>
void
parallelFor(size_t n, Fn &&fn)
{
    const size_t threads = std::min(n, hardwareThreads());
    if (threads <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<size_t> next{0};
    std::mutex errMu;
    std::exception_ptr err; // guarded by errMu
    const auto work = [&] {
        try {
            for (size_t i = next.fetch_add(1); i < n;
                 i = next.fetch_add(1))
                fn(i);
        } catch (...) {
            next.store(n);
            const std::lock_guard<std::mutex> lock(errMu);
            if (!err)
                err = std::current_exception();
        }
    };
    {
        // jthreads join on scope exit, also if spawning one throws.
        std::vector<std::jthread> pool;
        pool.reserve(threads - 1);
        for (size_t t = 1; t < threads; ++t)
            pool.emplace_back(work);
        work();
    }
    if (err)
        std::rethrow_exception(err);
}

/**
 * Run fn(member, sync) once for every member in [0, size), each on its
 * own thread, and return when all have finished. Member 0 runs on the
 * calling thread, so a team of one runs inline without spawning.
 * `sync` is a std::barrier over the team: members meet with
 * sync.arrive_and_wait(), and a phase ends once every member still in
 * the team has arrived. A member drops out of the barrier when its fn
 * returns or throws, so the others never wait on it. The first
 * exception a member throws is rethrown here after every member has
 * joined.
 */
template <typename Fn>
void
runTeam(size_t size, Fn &&fn)
{
    size = std::max<size_t>(size, 1);
    std::barrier<> sync(static_cast<std::ptrdiff_t>(size));
    std::mutex errMu;
    std::exception_ptr err; // guarded by errMu
    const auto member = [&](size_t m) {
        try {
            fn(m, sync);
        } catch (...) {
            const std::lock_guard<std::mutex> lock(errMu);
            if (!err)
                err = std::current_exception();
        }
        sync.arrive_and_drop();
    };
    if (size == 1) {
        member(0);
    } else {
        // jthreads join on scope exit, also if spawning one throws;
        // the members that never started leave the barrier first.
        std::vector<std::jthread> team;
        team.reserve(size - 1);
        try {
            for (size_t m = 1; m < size; ++m)
                team.emplace_back(member, m);
        } catch (...) {
            for (size_t m = team.size() + 1; m <= size; ++m)
                sync.arrive_and_drop();
            throw;
        }
        member(0);
    }
    if (err)
        std::rethrow_exception(err);
}

} // namespace specee

#endif // SPECEE_UTIL_PARALLEL_HH
