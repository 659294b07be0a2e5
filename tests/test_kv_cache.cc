/**
 * @file
 * KV storage tests: contiguous cache, multi-sequence paged allocator
 * (vllm substrate), equivalence between the two, rollback semantics,
 * pool exhaustion, fragmentation, per-sequence isolation and on-demand
 * block storage.
 */

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "model/kv_cache.hh"
#include "model/paged_kv.hh"
#include "util/rng.hh"

using namespace specee;
using namespace specee::model;

namespace {

tensor::Vec
vec(int hidden, float base)
{
    tensor::Vec v(static_cast<size_t>(hidden));
    for (int i = 0; i < hidden; ++i)
        v[static_cast<size_t>(i)] = base + static_cast<float>(i);
    return v;
}

/** Distinct, position-keyed row content of sequence `tag`. */
tensor::Vec
row(int tag, int layer, int pos, float sign)
{
    tensor::Vec v(4);
    for (int i = 0; i < 4; ++i) {
        v[static_cast<size_t>(i)] =
            sign * static_cast<float>(tag * 10000 + layer * 1000 +
                                      pos * 4 + i);
    }
    return v;
}

/** Physical block table of (seq, layer), read through retainRows. */
std::vector<int>
tableOf(PagedKvCache &pool, int seq, int layer)
{
    auto ids = pool.retainRows(seq, layer, 0, pool.length(seq, layer));
    pool.releaseBlocks(ids);
    return ids;
}

std::vector<int>
iotaIds(int first, int last)
{
    std::vector<int> ids(static_cast<size_t>(last - first + 1));
    std::iota(ids.begin(), ids.end(), first);
    return ids;
}

} // namespace

TEST(KvCache, AppendAndReadBack)
{
    KvCache kv(2, 16, 4);
    auto k = vec(4, 1.0f);
    auto v = vec(4, 100.0f);
    EXPECT_EQ(kv.append(0, k, v), 0);
    EXPECT_EQ(kv.append(0, k, v), 1);
    EXPECT_EQ(kv.length(0), 2);
    EXPECT_EQ(kv.length(1), 0);
    EXPECT_FLOAT_EQ(kv.key(0, 1)[2], 3.0f);
    EXPECT_FLOAT_EQ(kv.value(0, 0)[0], 100.0f);
}

TEST(KvCache, TruncateRollsBack)
{
    KvCache kv(1, 8, 2);
    for (int i = 0; i < 5; ++i)
        kv.append(0, vec(2, static_cast<float>(i)), vec(2, 0.0f));
    kv.truncate(2);
    EXPECT_EQ(kv.length(0), 2);
    kv.append(0, vec(2, 77.0f), vec(2, 0.0f));
    EXPECT_FLOAT_EQ(kv.key(0, 2)[0], 77.0f);
}

TEST(KvCache, OverflowDies)
{
    KvCache kv(1, 2, 2);
    kv.append(0, vec(2, 0), vec(2, 0));
    kv.append(0, vec(2, 0), vec(2, 0));
    EXPECT_DEATH(kv.append(0, vec(2, 0), vec(2, 0)), "overflow");
}

TEST(KvCache, StorageSurvivesClearAndTruncate)
{
    KvCache kv(2, 64, 4);
    for (int p = 0; p < 10; ++p)
        kv.append(0, row(1, 0, p, 1.0f), row(1, 0, p, -1.0f));
    kv.clear();
    EXPECT_EQ(kv.length(0), 0);
    for (int p = 0; p < 6; ++p)
        kv.append(0, row(2, 0, p, 1.0f), row(2, 0, p, -1.0f));
    kv.truncate(3);
    for (int p = 3; p < 8; ++p)
        kv.append(0, row(3, 0, p, 1.0f), row(3, 0, p, -1.0f));
    // Layer 1 materializes only now, after layer 0 was rolled back.
    kv.append(1, row(4, 1, 0, 1.0f), row(4, 1, 0, -1.0f));
    ASSERT_EQ(kv.length(0), 8);
    for (int p = 0; p < 8; ++p) {
        const int tag = p < 3 ? 2 : 3;
        for (size_t d = 0; d < 4; ++d) {
            EXPECT_FLOAT_EQ(kv.key(0, p)[d], row(tag, 0, p, 1.0f)[d]);
            EXPECT_FLOAT_EQ(kv.value(0, p)[d], row(tag, 0, p, -1.0f)[d]);
        }
    }
    EXPECT_EQ(kv.length(1), 1);
    EXPECT_FLOAT_EQ(kv.key(1, 0)[0], row(4, 1, 0, 1.0f)[0]);
}

TEST(KvCache, SpansStayValidAcrossAppends)
{
    KvCache kv(3, 256, 4);
    kv.append(0, row(1, 0, 0, 1.0f), row(1, 0, 0, -1.0f));
    const tensor::CSpan k = kv.key(0, 0);
    const tensor::CSpan v = kv.value(0, 0);
    for (int p = 1; p <= 200; ++p) {
        for (int l = 0; l < 3; ++l)
            kv.append(l, row(1, l, p, 1.0f), row(1, l, p, -1.0f));
    }
    EXPECT_EQ(k.data(), kv.key(0, 0).data());
    for (size_t d = 0; d < 4; ++d) {
        EXPECT_FLOAT_EQ(k[d], row(1, 0, 0, 1.0f)[d]);
        EXPECT_FLOAT_EQ(v[d], row(1, 0, 0, -1.0f)[d]);
    }
}

TEST(PagedKv, CapacityIsAnIdBoundNotAReservation)
{
    PagedKvCache pool(32, 100000, 64);
    EXPECT_EQ(pool.nBlocks(), 100000);
    EXPECT_EQ(pool.blocksFree(), 100000);
    EXPECT_EQ(pool.materializedBlocks(), 0);
    const int s = pool.createSequence();
    pool.append(s, 0, tensor::Vec(64, 1.0f), tensor::Vec(64, 2.0f));
    EXPECT_EQ(pool.materializedBlocks(), kKvChunkBlocks);
    pool.dropSequence(s);
    // Storage is kept once touched; the free list reuses it first.
    EXPECT_EQ(pool.materializedBlocks(), kKvChunkBlocks);
}

TEST(PagedKv, LastChunkCoversOnlyTheRemainingBlocks)
{
    PagedKvCache pool(1, kKvChunkBlocks + 3, 2);
    const int s = pool.createSequence();
    for (int i = 0; i < (kKvChunkBlocks + 1) * kKvBlockSize; ++i)
        pool.append(s, 0, vec(2, static_cast<float>(i)), vec(2, 0));
    EXPECT_EQ(pool.materializedBlocks(), kKvChunkBlocks + 3);
}

TEST(PagedKv, PinnedAllocationSequence)
{
    // Alloc, copy-on-write fork, adoptPrefix, free, swapOut/swapIn
    // and truncate on one pool. The block ids are pinned to the
    // values the eagerly allocated pool handed out, so on-demand
    // storage changes neither the free-list order nor any id.
    PagedKvCache pool(2, 300, 4);
    const auto put = [&](int seq, int tag, int n) {
        for (int l = 0; l < 2; ++l) {
            for (int i = 0; i < n; ++i) {
                const int p = pool.length(seq, l);
                pool.append(seq, l, row(tag, l, p, 1.0f),
                            row(tag, l, p, -1.0f));
            }
        }
    };
    // Rows [0, shared) hold `donor` content, the rest `tag`'s own.
    const auto expectRows = [&](int seq, int tag, int donor,
                                int shared) {
        for (int l = 0; l < 2; ++l) {
            for (int p = 0; p < pool.length(seq, l); ++p) {
                const int t = p < shared ? donor : tag;
                ASSERT_EQ(pool.key(seq, l, p)[3], row(t, l, p, 1.0f)[3]);
                ASSERT_EQ(pool.value(seq, l, p)[0],
                          row(t, l, p, -1.0f)[0]);
            }
        }
    };
    using Ids = std::vector<int>;

    const int a = pool.createSequence();
    put(a, 1, 40);
    const int b = pool.createSequence();
    put(b, 2, 20);
    // A prefix-cache holder retains A's first 24 rows, and C maps
    // onto them; C's first append forks the shared tail block.
    std::vector<Ids> chain(2);
    for (int l = 0; l < 2; ++l)
        chain[static_cast<size_t>(l)] = pool.retainRows(a, l, 0, 24);
    const int c = pool.createSequence();
    for (int l = 0; l < 2; ++l)
        pool.adoptPrefix(c, l, chain[static_cast<size_t>(l)], 24);
    put(c, 3, 10);
    EXPECT_EQ(tableOf(pool, a, 0), (Ids{0, 1, 2}));
    EXPECT_EQ(tableOf(pool, a, 1), (Ids{3, 4, 5}));
    EXPECT_EQ(tableOf(pool, c, 0), (Ids{0, 10, 11}));
    EXPECT_EQ(tableOf(pool, c, 1), (Ids{3, 12, 13}));
    expectRows(c, 3, 1, 24);

    pool.dropSequence(b);
    pool.swapOut(a);
    const int d = pool.createSequence();
    put(d, 4, 100);
    pool.swapIn(a);
    EXPECT_EQ(tableOf(pool, a, 0), (Ids{22, 23, 24}));
    EXPECT_EQ(tableOf(pool, a, 1), (Ids{25, 26, 27}));
    const Ids d0{5, 2, 8, 9, 6, 7, 14};
    const Ids d1{15, 16, 17, 18, 19, 20, 21};
    EXPECT_EQ(tableOf(pool, d, 0), d0);
    EXPECT_EQ(tableOf(pool, d, 1), d1);
    expectRows(a, 1, 1, 0);
    expectRows(d, 4, 4, 0);
    EXPECT_EQ(pool.materializedBlocks(), kKvChunkBlocks);

    pool.truncate(a, 17);
    pool.truncate(c, 5);
    const int e = pool.createSequence();
    put(e, 5, 1100); // runs into the second and third chunks
    EXPECT_EQ(tableOf(pool, a, 0), (Ids{22, 23}));
    EXPECT_EQ(tableOf(pool, a, 1), (Ids{25, 26}));
    EXPECT_EQ(tableOf(pool, c, 0), (Ids{0}));
    EXPECT_EQ(tableOf(pool, c, 1), (Ids{3}));
    EXPECT_EQ(tableOf(pool, d, 0), d0);
    EXPECT_EQ(tableOf(pool, d, 1), d1);
    Ids e0{12, 13, 10, 11, 27, 24};
    const Ids fresh = iotaIds(28, 90);
    e0.insert(e0.end(), fresh.begin(), fresh.end());
    EXPECT_EQ(tableOf(pool, e, 0), e0);
    EXPECT_EQ(tableOf(pool, e, 1), iotaIds(91, 159));
    expectRows(a, 1, 1, 0);
    expectRows(c, 3, 1, 24);
    expectRows(d, 4, 4, 0);
    expectRows(e, 5, 5, 0);
    EXPECT_EQ(pool.materializedBlocks(), 3 * kKvChunkBlocks);

    for (const auto &ch : chain)
        pool.releaseBlocks(ch);
    EXPECT_EQ(pool.blocksInUse(), 2 * (2 + 1 + 7 + 69));
}

TEST(PagedKv, SpansStayValidAcrossAppends)
{
    // 200 more positions on 8 layers take 104 blocks, so the pool
    // allocates a second chunk while the first span is held.
    PagedKvCache pool(8, 1000, 4);
    const int s = pool.createSequence();
    pool.append(s, 0, row(1, 0, 0, 1.0f), row(1, 0, 0, -1.0f));
    const tensor::CSpan k = pool.key(s, 0, 0);
    const tensor::CSpan v = pool.value(s, 0, 0);
    for (int p = 1; p <= 200; ++p) {
        for (int l = 0; l < 8; ++l) {
            const int pos = pool.length(s, l);
            pool.append(s, l, row(1, l, pos, 1.0f),
                        row(1, l, pos, -1.0f));
        }
    }
    EXPECT_GT(pool.materializedBlocks(), kKvChunkBlocks);
    EXPECT_EQ(k.data(), pool.key(s, 0, 0).data());
    for (size_t d = 0; d < 4; ++d) {
        EXPECT_FLOAT_EQ(k[d], row(1, 0, 0, 1.0f)[d]);
        EXPECT_FLOAT_EQ(v[d], row(1, 0, 0, -1.0f)[d]);
    }
}

TEST(PagedKv, BlocksAllocatedOnDemand)
{
    PagedKvCache pool(1, 4, 2);
    const int s = pool.createSequence();
    EXPECT_EQ(pool.blocksInUse(), 0);
    for (int i = 0; i < kKvBlockSize; ++i)
        pool.append(s, 0, vec(2, 0), vec(2, 0));
    EXPECT_EQ(pool.blocksInUse(), 1);
    pool.append(s, 0, vec(2, 0), vec(2, 0));
    EXPECT_EQ(pool.blocksInUse(), 2);
}

TEST(PagedKv, TruncateFreesWholeBlocks)
{
    PagedKvCache pool(1, 8, 2);
    const int s = pool.createSequence();
    for (int i = 0; i < 2 * kKvBlockSize + 3; ++i)
        pool.append(s, 0, vec(2, static_cast<float>(i)), vec(2, 0));
    EXPECT_EQ(pool.blocksInUse(), 3);
    pool.truncate(s, kKvBlockSize); // exactly one block's worth
    EXPECT_EQ(pool.blocksInUse(), 1);
    EXPECT_EQ(pool.length(s, 0), kKvBlockSize);
    // Freed blocks are reusable.
    for (int i = 0; i < kKvBlockSize; ++i)
        pool.append(s, 0, vec(2, 0), vec(2, 0));
    EXPECT_EQ(pool.blocksInUse(), 2);
}

TEST(PagedKv, TruncateToZeroFreesAllBlocks)
{
    PagedKvCache pool(3, 12, 2);
    const int s = pool.createSequence();
    for (int l = 0; l < 3; ++l)
        for (int i = 0; i < kKvBlockSize + 5; ++i)
            pool.append(s, l, vec(2, 0), vec(2, 0));
    EXPECT_EQ(pool.seqBlocks(s), 6);
    pool.truncate(s, 0);
    EXPECT_EQ(pool.seqBlocks(s), 0);
    EXPECT_EQ(pool.blocksInUse(), 0);
    EXPECT_EQ(pool.blocksFree(), 12);
    for (int l = 0; l < 3; ++l)
        EXPECT_EQ(pool.length(s, l), 0);
    // The sequence stays usable after a full rollback.
    EXPECT_EQ(pool.append(s, 0, vec(2, 9.0f), vec(2, 0)), 0);
}

TEST(PagedKv, ClearReleasesEverything)
{
    PagedKvCache pool(2, 8, 2);
    const int s = pool.createSequence();
    for (int l = 0; l < 2; ++l)
        for (int i = 0; i < 20; ++i)
            pool.append(s, l, vec(2, 0), vec(2, 0));
    pool.clearSeq(s);
    EXPECT_EQ(pool.blocksInUse(), 0);
    EXPECT_EQ(pool.blocksFree(), 8);
    EXPECT_EQ(pool.length(s, 0), 0);
}

TEST(PagedKv, PoolExhaustionMidAppendDies)
{
    // Two sequences share one physical pool; the second exhausts it
    // mid-append even though its own sequence is tiny.
    PagedKvCache pool(1, 2, 2);
    const int a = pool.createSequence();
    const int b = pool.createSequence();
    for (int i = 0; i < kKvBlockSize; ++i)
        pool.append(a, 0, vec(2, 0), vec(2, 0));
    for (int i = 0; i < kKvBlockSize; ++i)
        pool.append(b, 0, vec(2, 0), vec(2, 0));
    EXPECT_TRUE(pool.wouldOverflow(a, 0));
    EXPECT_TRUE(pool.wouldOverflow(b, 0));
    EXPECT_DEATH(pool.append(b, 0, vec(2, 0), vec(2, 0)), "exhausted");
    // Freeing the other sequence unblocks the append.
    pool.dropSequence(a);
    EXPECT_FALSE(pool.wouldOverflow(b, 0));
    EXPECT_EQ(pool.append(b, 0, vec(2, 0), vec(2, 0)), kKvBlockSize);
}

TEST(PagedKv, PerSequenceIsolation)
{
    PagedKvCache pool(2, 8, 2);
    const int a = pool.createSequence();
    const int b = pool.createSequence();
    // Interleaved appends: positions and contents must not bleed
    // across block tables.
    for (int i = 0; i < kKvBlockSize + 2; ++i) {
        EXPECT_EQ(pool.append(a, 0, vec(2, 1000.0f + i), vec(2, 0)), i);
        EXPECT_EQ(pool.append(b, 0, vec(2, 2000.0f + i), vec(2, 0)), i);
    }
    pool.append(b, 1, vec(2, 3000.0f), vec(2, 0));
    EXPECT_EQ(pool.length(a, 0), kKvBlockSize + 2);
    EXPECT_EQ(pool.length(a, 1), 0);
    EXPECT_EQ(pool.length(b, 1), 1);
    for (int i = 0; i < kKvBlockSize + 2; ++i) {
        EXPECT_FLOAT_EQ(pool.key(a, 0, i)[0], 1000.0f + i);
        EXPECT_FLOAT_EQ(pool.key(b, 0, i)[0], 2000.0f + i);
    }
    // Truncating one sequence leaves the other intact.
    pool.truncate(a, 1);
    EXPECT_EQ(pool.length(b, 0), kKvBlockSize + 2);
    EXPECT_FLOAT_EQ(pool.key(b, 0, kKvBlockSize)[0],
                    2000.0f + kKvBlockSize);
}

TEST(PagedKv, InterleavedAllocFreeFragmentation)
{
    // Fragmentation scenario: A and B interleave allocations so
    // neither owns a contiguous physical range, then A is dropped
    // and a new sequence reuses the scattered free blocks.
    PagedKvCache pool(1, 4, 2);
    const int a = pool.createSequence();
    const int b = pool.createSequence();
    for (int i = 0; i < 2 * kKvBlockSize; ++i) {
        pool.append(a, 0, vec(2, 10.0f + i), vec(2, 0));
        pool.append(b, 0, vec(2, 20.0f + i), vec(2, 0));
    }
    EXPECT_EQ(pool.blocksFree(), 0);
    pool.dropSequence(a);
    EXPECT_EQ(pool.blocksFree(), 2);
    EXPECT_EQ(pool.blocksInUse(), 2);

    const int c = pool.createSequence();
    for (int i = 0; i < 2 * kKvBlockSize; ++i)
        pool.append(c, 0, vec(2, 30.0f + i), vec(2, 0));
    EXPECT_EQ(pool.blocksFree(), 0);
    // B survived the churn bit-for-bit.
    for (int i = 0; i < 2 * kKvBlockSize; ++i) {
        EXPECT_FLOAT_EQ(pool.key(b, 0, i)[0], 20.0f + i);
        EXPECT_FLOAT_EQ(pool.key(c, 0, i)[0], 30.0f + i);
    }
}

TEST(PagedKv, SequenceIdsRecycleDeterministically)
{
    PagedKvCache pool(1, 4, 2);
    const int a = pool.createSequence();
    const int b = pool.createSequence();
    EXPECT_EQ(pool.nSequences(), 2);
    pool.dropSequence(a);
    EXPECT_EQ(pool.createSequence(), a); // LIFO recycling
    EXPECT_EQ(pool.nSequences(), 2);
    (void)b;
}

TEST(SequenceKv, KvStoreViewOwnsItsSequence)
{
    auto pool = std::make_shared<PagedKvCache>(2, 8, 2);
    {
        SequenceKv view(pool);
        KvStore &kv = view;
        for (int i = 0; i < kKvBlockSize + 1; ++i)
            kv.append(0, vec(2, static_cast<float>(i)), vec(2, 0));
        EXPECT_EQ(kv.length(0), kKvBlockSize + 1);
        EXPECT_FLOAT_EQ(kv.key(0, kKvBlockSize)[0],
                        static_cast<float>(kKvBlockSize));
        EXPECT_EQ(view.blocks(), 2);
        kv.truncate(1);
        EXPECT_EQ(view.blocks(), 1);
        EXPECT_EQ(pool->nSequences(), 1);
    }
    // The view's destructor returned every block to the pool.
    EXPECT_EQ(pool->blocksInUse(), 0);
    EXPECT_EQ(pool->nSequences(), 0);
}

TEST(PagedKv, MatchesContiguousContents)
{
    const int layers = 3, hidden = 8, tokens = 40;
    KvCache a(layers, 64, hidden);
    PagedKvCache pool(layers, layers * (tokens / kKvBlockSize + 2),
                      hidden);
    const int s = pool.createSequence();
    Rng rng(7);
    for (int t = 0; t < tokens; ++t) {
        for (int l = 0; l < layers; ++l) {
            tensor::Vec k(hidden), v(hidden);
            for (auto &x : k)
                x = static_cast<float>(rng.normal());
            for (auto &x : v)
                x = static_cast<float>(rng.normal());
            EXPECT_EQ(a.append(l, k, v), pool.append(s, l, k, v));
        }
    }
    for (int l = 0; l < layers; ++l) {
        ASSERT_EQ(a.length(l), pool.length(s, l));
        for (int p = 0; p < a.length(l); ++p) {
            for (int d = 0; d < hidden; ++d) {
                const auto di = static_cast<size_t>(d);
                ASSERT_FLOAT_EQ(a.key(l, p)[di],
                                pool.key(s, l, p)[di]);
                ASSERT_FLOAT_EQ(a.value(l, p)[di],
                                pool.value(s, l, p)[di]);
            }
        }
    }
}

TEST(PagedKv, PerLayerIndependentTables)
{
    PagedKvCache pool(2, 4, 2);
    const int s = pool.createSequence();
    pool.append(s, 0, vec(2, 1.0f), vec(2, 2.0f));
    pool.append(s, 1, vec(2, 3.0f), vec(2, 4.0f));
    EXPECT_FLOAT_EQ(pool.key(s, 0, 0)[0], 1.0f);
    EXPECT_FLOAT_EQ(pool.key(s, 1, 0)[0], 3.0f);
    EXPECT_EQ(pool.blocksInUse(), 2);
}
