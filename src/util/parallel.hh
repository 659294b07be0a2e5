/**
 * @file
 * Fork-join loop over an index range on the host's cores.
 *
 * Callers keep results deterministic by giving each index its own
 * output slot and combining the slots in index order after the call;
 * which thread runs an index is unspecified.
 */

#ifndef SPECEE_UTIL_PARALLEL_HH
#define SPECEE_UTIL_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace specee {

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
    const size_t threads = std::min<size_t>(
        n, std::max(1u, std::thread::hardware_concurrency()));
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

} // namespace specee

#endif // SPECEE_UTIL_PARALLEL_HH
