/**
 * @file
 * Prefix-cache tests: paged-KV block refcounting (pinned-while-
 * referenced blocks, double-free and retain-of-free fatal,
 * copy-on-write isolation between sequences sharing a block),
 * PromptSpec derivation (deterministic token streams, shared
 * template prefixes, parent chains, the stride-64 sim mapping, an
 * unshared spec's explicit length), the radix tree itself (longest-
 * prefix match, edge splits, deepest-wins block tables, LRU leaf
 * eviction, clear), and the scheduler integration: cache-off
 * bit-identity to the cache-less scheduler, cache-on emissions
 * bit-identical to isolated Engine::runOne references even for
 * adopted resumes, hit/eviction accounting, multi-turn chains,
 * TTFT improvement under chunked pricing, and worker-count
 * determinism with the cache on.
 */

#include <gtest/gtest.h>

#include <memory>

#include "model/paged_kv.hh"
#include "serve/prefix_cache.hh"
#include "serve/prompt_spec.hh"
#include "serve/server.hh"
#include "test_util.hh"

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

serve::ServerOptions
baseOpts(int workers, int max_batch)
{
    serve::ServerOptions o;
    o.engine = engines::EngineConfig::huggingFace().withSpecEE();
    o.spec = hw::HardwareSpec::a100();
    o.workers = workers;
    o.sched.max_batch = max_batch;
    return o;
}

serve::ServeReport
serveStream(const serve::ServerOptions &opts,
            const std::vector<serve::Request> &stream)
{
    serve::Server server(testutil::tinyPipeline(), opts);
    server.submit(stream);
    return server.drain();
}

/** Stream of shared-template conversations (see StreamOptions). */
serve::StreamOptions
sharedStream(int n_requests, double reuse, int turns)
{
    serve::StreamOptions so;
    so.n_requests = n_requests;
    so.gen_len = 12;
    so.prompt_len = 512;
    so.prefix_reuse = reuse;
    so.turns = turns;
    so.seed = 0xcafe;
    return so;
}

} // namespace

// -------------------------------------------------------------------------
// Paged-KV block refcounting
// -------------------------------------------------------------------------

TEST(PagedKvRefcount, RetainedBlocksStayPinnedAfterSequenceDrop)
{
    PagedKvCache pool(1, 8, 2);
    const int seq = pool.createSequence();
    for (int pos = 0; pos < 20; ++pos) // 2 blocks
        pool.append(seq, 0, vec(2, static_cast<float>(pos)),
                    vec(2, 0.5f));
    const auto held = pool.retainRows(seq, 0, 0, 20);
    ASSERT_EQ(held.size(), 2u);
    EXPECT_EQ(pool.blockRefs(held[0]), 2);

    // Dropping the sequence only drops ITS references: the cache's
    // references keep the blocks off the free list.
    pool.dropSequence(seq);
    EXPECT_EQ(pool.blocksInUse(), 2);
    EXPECT_EQ(pool.blockRefs(held[0]), 1);

    // The last release returns them.
    EXPECT_EQ(pool.releaseBlocks(held), 2);
    EXPECT_EQ(pool.blocksInUse(), 0);
}

TEST(PagedKvRefcount, DoubleFreeAndRetainOfFreeAreFatal)
{
    PagedKvCache pool(1, 4, 2);
    const int seq = pool.createSequence();
    pool.append(seq, 0, vec(2, 1.0f), vec(2, 2.0f));
    const auto held = pool.retainRows(seq, 0, 0, 1);
    pool.dropSequence(seq);
    EXPECT_EQ(pool.releaseBlocks(held), 1);
    // The blocks are free now: another release is a double free and
    // re-retaining them would resurrect freed memory.
    EXPECT_DEATH(pool.releaseBlocks(held), "double free");
    EXPECT_DEATH(pool.retainBlock(held[0]), "retain of a free");
}

TEST(PagedKvRefcount, AdoptIntoNonEmptyLayerIsFatal)
{
    PagedKvCache pool(1, 4, 2);
    const int donor = pool.createSequence();
    pool.append(donor, 0, vec(2, 1.0f), vec(2, 2.0f));
    const auto chain = pool.retainRows(donor, 0, 0, 1);
    const int taker = pool.createSequence();
    pool.append(taker, 0, vec(2, 3.0f), vec(2, 4.0f));
    EXPECT_DEATH(pool.adoptPrefix(taker, 0, chain, 1),
                 "adoptPrefix into non-empty");
    pool.releaseBlocks(chain);
}

TEST(PagedKvRefcount, CopyOnWriteForkIsolatesSharedBlocks)
{
    PagedKvCache pool(1, 8, 2);
    const int donor = pool.createSequence();
    for (int pos = 0; pos < 5; ++pos)
        pool.append(donor, 0, vec(2, static_cast<float>(pos)),
                    vec(2, static_cast<float>(10 + pos)));
    const auto chain = pool.retainRows(donor, 0, 0, 5);
    ASSERT_EQ(chain.size(), 1u);

    const int taker = pool.createSequence();
    pool.adoptPrefix(taker, 0, chain, 4); // adopt rows [0, 4)
    EXPECT_EQ(pool.length(taker, 0), 4);
    EXPECT_EQ(pool.blockRefs(chain[0]), 3); // donor + cache + taker
    // Adopted rows read the donor's content through the shared block.
    for (int pos = 0; pos < 4; ++pos)
        EXPECT_FLOAT_EQ(pool.key(taker, 0, pos)[0],
                        static_cast<float>(pos));

    // The taker's first write forks the shared block: the donor's
    // row 4 is untouched and the fork carried the shared rows over.
    EXPECT_EQ(pool.append(taker, 0, vec(2, 99.0f), vec(2, 98.0f)), 4);
    EXPECT_EQ(pool.blockRefs(chain[0]), 2); // taker moved to its fork
    EXPECT_FLOAT_EQ(pool.key(donor, 0, 4)[0], 4.0f);
    EXPECT_FLOAT_EQ(pool.key(taker, 0, 4)[0], 99.0f);
    for (int pos = 0; pos < 4; ++pos)
        EXPECT_FLOAT_EQ(pool.key(taker, 0, pos)[0],
                        static_cast<float>(pos));

    pool.dropSequence(taker);
    pool.dropSequence(donor);
    EXPECT_EQ(pool.releaseBlocks(chain), 1);
    EXPECT_EQ(pool.blocksInUse(), 0);
}

// -------------------------------------------------------------------------
// PromptSpec derivation
// -------------------------------------------------------------------------

TEST(PromptSpec, SharedTemplateGivesSharedTruePrefix)
{
    serve::PromptSpec a;
    a.template_id = 0x51;
    a.prefix_len = 100;
    a.suffix_len = 40;
    a.suffix_seed = 7;
    serve::PromptSpec b = a;
    b.suffix_seed = 8;

    const auto ta = serve::resolvePromptTokens(a);
    const auto tb = serve::resolvePromptTokens(b);
    ASSERT_EQ(ta.size(), 140u);
    ASSERT_EQ(tb.size(), 140u);
    // Deterministic...
    EXPECT_EQ(ta, serve::resolvePromptTokens(a));
    // ...shared over the template, divergent over the suffixes.
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(ta[static_cast<size_t>(i)], tb[static_cast<size_t>(i)]);
    EXPECT_NE(ta, tb);

    // A longer draw from the same template extends a shorter one
    // (the token stream is a function of the absolute position).
    serve::PromptSpec c = a;
    c.prefix_len = 60;
    const auto tc = serve::resolvePromptTokens(c);
    for (int i = 0; i < 60; ++i)
        EXPECT_EQ(tc[static_cast<size_t>(i)], ta[static_cast<size_t>(i)]);
}

TEST(PromptSpec, ParentChainsExtendTheParentPrompt)
{
    auto root = std::make_shared<serve::PromptSpec>();
    root->template_id = 0x9a;
    root->prefix_len = 80;
    root->suffix_len = 20;
    root->suffix_seed = 3;

    serve::PromptSpec turn2;
    turn2.parent = root;
    turn2.parent_id = 1;
    turn2.suffix_len = 30;
    turn2.suffix_seed = 4;
    EXPECT_TRUE(turn2.shared());
    EXPECT_EQ(turn2.totalLen(), 130);
    EXPECT_EQ(turn2.rootTemplate(), 0x9aull);

    const auto parent_toks = serve::resolvePromptTokens(*root);
    const auto child_toks = serve::resolvePromptTokens(turn2);
    ASSERT_EQ(child_toks.size(), 130u);
    for (size_t i = 0; i < parent_toks.size(); ++i)
        EXPECT_EQ(child_toks[i], parent_toks[i]);
}

TEST(PromptSpec, StrideMappingSharesSimPrefixForSharedTrueTokens)
{
    EXPECT_EQ(serve::simRowsForSpan(0), 0);
    EXPECT_EQ(serve::simRowsForSpan(1), 1);
    EXPECT_EQ(serve::simRowsForSpan(serve::kPromptSimStride), 1);
    EXPECT_EQ(serve::simRowsForSpan(serve::kPromptSimStride + 1), 2);

    serve::PromptSpec a;
    a.template_id = 0x77;
    a.prefix_len = 200;
    a.suffix_len = 56;
    a.suffix_seed = 1;
    serve::PromptSpec b = a;
    b.suffix_len = 120;
    b.suffix_seed = 2;

    const auto ta = serve::resolvePromptTokens(a);
    const auto tb = serve::resolvePromptTokens(b);
    const auto sa = serve::derivePromptSim(ta, 512);
    const auto sb = serve::derivePromptSim(tb, 512);
    ASSERT_EQ(sa.size(),
              static_cast<size_t>(serve::simRowsForSpan(256)) + 1);
    ASSERT_EQ(sb.size(),
              static_cast<size_t>(serve::simRowsForSpan(320)) + 1);
    // Sim rows are the stride marks of the true stream...
    for (size_t j = 0; j + 1 < sa.size(); ++j)
        EXPECT_EQ(sa[j],
                  ta[j * serve::kPromptSimStride] % 512);
    // ...so the 200 shared true tokens share ceil(200/64) = 4 rows
    // regardless of total prompt length, and the decode input is the
    // final true token.
    for (int j = 0; j < serve::simRowsForSpan(200); ++j)
        EXPECT_EQ(sa[static_cast<size_t>(j)], sb[static_cast<size_t>(j)]);
    EXPECT_EQ(sa.back(), ta.back() % 512);
}

TEST(PromptSpec, UnsharedSuffixLenMatchesPromptLenOverride)
{
    // An unshared spec with an explicit suffix length must build the
    // exact workload GenOptions::prompt_len_override builds.
    const auto &pipe = testutil::tinyPipeline();
    workload::GenOptions gen;
    gen.n_instances = 1;
    gen.gen_len = 16;
    gen.seed = 0xabc;
    gen.prompt_len_override = 777;

    serve::Request r;
    r.dataset = "SUM";
    r.gen_len = 16;
    r.gen_seed = 0xabc;
    r.prompt.suffix_len = 777;
    r.prompt.suffix_seed = 0xabc;
    ASSERT_FALSE(r.prompt.shared());

    const auto wa = pipe.makeWorkload("SUM", gen, false);
    const auto wb = serve::buildPromptWorkload(pipe, r, false);
    EXPECT_EQ(wa.true_prompt_len, 777);
    EXPECT_EQ(wa.true_prompt_len, wb.true_prompt_len);
    ASSERT_EQ(wa.instances.size(), wb.instances.size());
    EXPECT_EQ(wa.instances[0].prompt, wb.instances[0].prompt);
}

TEST(PromptSpec, StreamSharingKnobsLeaveLegacySeedsUntouched)
{
    // prefix_reuse draws its sharing coin flips from a side rng
    // stream: seeds, arrivals and deadlines of the synthesized
    // requests must be bit-identical with the knob on or off — only
    // the PromptSpec annotation changes.
    serve::StreamOptions legacy;
    legacy.n_requests = 12;
    legacy.rate_rps = 5.0;
    legacy.seed = 0x1dea;
    auto conv = legacy;
    conv.prefix_reuse = 0.5;
    conv.prompt_len = 512;

    const auto a = serve::synthesizeStream(legacy);
    const auto b = serve::synthesizeStream(conv);
    ASSERT_EQ(a.size(), b.size());
    bool any_shared = false;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_EQ(a[i].gen_seed, b[i].gen_seed);
        EXPECT_DOUBLE_EQ(a[i].arrival_s, b[i].arrival_s);
        EXPECT_FALSE(a[i].prompt.shared());
        any_shared = any_shared || b[i].prompt.shared();
    }
    EXPECT_TRUE(any_shared);
}

// -------------------------------------------------------------------------
// Radix tree mechanics
// -------------------------------------------------------------------------

namespace {

/** Fill `rows` sim KV rows into a fresh pool sequence. */
int
prefilledSeq(PagedKvCache &pool, int rows, float tag)
{
    const int seq = pool.createSequence();
    for (int l = 0; l < pool.nLayers(); ++l) {
        for (int r = 0; r < rows; ++r) {
            pool.append(seq, l, vec(pool.hidden(), tag + r),
                        vec(pool.hidden(), -tag - r));
        }
    }
    return seq;
}

std::vector<int>
tokenRun(int len, int base)
{
    std::vector<int> t(static_cast<size_t>(len));
    for (int i = 0; i < len; ++i)
        t[static_cast<size_t>(i)] = base + i;
    return t;
}

} // namespace

TEST(PrefixCacheTree, InsertMatchSplitAndDeepestWinsTables)
{
    auto pool = std::make_shared<PagedKvCache>(2, 64, 4);
    serve::PrefixCache cache(2, {pool});
    EXPECT_TRUE(cache.empty());

    // Prompt A: 130 true tokens -> 3 sim rows (1 block per layer).
    const auto ta = tokenRun(130, 1000);
    const int sa = prefilledSeq(*pool, serve::simRowsForSpan(130), 1.0f);
    cache.insert(ta, 0, sa, 1);
    EXPECT_EQ(cache.nodes(), 1);
    EXPECT_EQ(cache.heldBlocks(), 2); // one block per layer

    // Full match covers the whole prompt.
    const auto full = cache.match(ta, 0, 2);
    EXPECT_EQ(full.true_matched, 130);
    EXPECT_EQ(full.sim_matched, 3);
    ASSERT_EQ(full.table.size(), 2u);
    ASSERT_EQ(full.table[0].size(), 1u);

    // Partial match stops at the divergence and rounds the sim span
    // to the rows fully covered by matched tokens.
    auto tb = ta;
    tb.resize(100);
    const auto part = cache.match(tb, 0, 3);
    EXPECT_EQ(part.true_matched, 100);
    EXPECT_EQ(part.sim_matched, serve::simRowsForSpan(100));

    // Prompt B shares 100 tokens, then diverges for 60 more: the
    // insert splits the edge at 100 and hangs B's tail as a sibling.
    tb = ta;
    tb.resize(100);
    const auto tail = tokenRun(60, 5000);
    tb.insert(tb.end(), tail.begin(), tail.end());
    const int sb = prefilledSeq(*pool, serve::simRowsForSpan(160), 2.0f);
    cache.insert(tb, 0, sb, 4);
    EXPECT_EQ(cache.nodes(), 3); // split node + two tails

    const auto mb = cache.match(tb, 0, 5);
    EXPECT_EQ(mb.true_matched, 160);
    EXPECT_EQ(mb.sim_matched, 3);
    const auto ma = cache.match(ta, 0, 6);
    EXPECT_EQ(ma.true_matched, 130);
    // Deepest-wins: the two prompts resolve their boundary block to
    // their own chains' copies.
    EXPECT_NE(ma.table[0][0], mb.table[0][0]);

    // A miss on the first token matches nothing.
    const auto miss = cache.match(tokenRun(40, 9999), 0, 7);
    EXPECT_EQ(miss.true_matched, 0);
    EXPECT_TRUE(miss.table.empty());

    cache.clear();
    EXPECT_TRUE(cache.empty());
    EXPECT_EQ(cache.heldBlocks(), 0);
    pool->dropSequence(sa);
    pool->dropSequence(sb);
    EXPECT_EQ(pool->blocksInUse(), 0);
}

TEST(PrefixCacheTree, LruLeafEvictionReleasesOnlyCacheReferences)
{
    auto pool = std::make_shared<PagedKvCache>(1, 64, 2);
    serve::PrefixCache cache(1, {pool});

    const auto ta = tokenRun(130, 0);
    auto tb = ta;
    const auto tail = tokenRun(60, 7000);
    tb.resize(100);
    tb.insert(tb.end(), tail.begin(), tail.end());

    const int sa = prefilledSeq(*pool, serve::simRowsForSpan(130), 1.0f);
    cache.insert(ta, 0, sa, 1);
    const int sb = prefilledSeq(*pool, serve::simRowsForSpan(160), 2.0f);
    cache.insert(tb, 0, sb, 2);
    ASSERT_EQ(cache.nodes(), 3);
    pool->dropSequence(sa);
    pool->dropSequence(sb);
    const int pinned = pool->blocksInUse();
    EXPECT_GT(pinned, 0); // cache references keep the KV alive

    // Refresh B's path: A's tail is now the LRU leaf and goes first.
    cache.match(tb, 0, 3);
    EXPECT_TRUE(cache.evictLru());
    EXPECT_EQ(cache.evictions(), 1);
    EXPECT_EQ(cache.match(ta, 0, 4).true_matched, 100); // split node
    EXPECT_EQ(cache.match(tb, 0, 5).true_matched, 160); // survived

    // Interior nodes become leaves as their children evict; draining
    // completely returns every block.
    while (cache.evictLru()) {
    }
    EXPECT_TRUE(cache.empty());
    EXPECT_EQ(cache.heldBlocks(), 0);
    EXPECT_EQ(pool->blocksInUse(), 0);
}

// -------------------------------------------------------------------------
// Scheduler integration
// -------------------------------------------------------------------------

TEST(PrefixCacheServe, CacheOnWithoutSharedPromptsMatchesCacheOff)
{
    // A legacy stream has no shared PromptSpecs: enabling the cache
    // must not change a single bit of the timeline or the tokens.
    serve::StreamOptions so;
    so.n_requests = 8;
    so.gen_len = 16;
    so.seed = 0x1e6a;
    const auto stream = serve::synthesizeStream(so);

    auto off = baseOpts(2, 4);
    off.sched.prefill.chunk_tokens = 48;
    const auto base = serveStream(off, stream);

    auto on = off;
    on.sched.prefix_cache.enabled = true;
    const auto cached = serveStream(on, stream);

    EXPECT_EQ(cached.fleet.prefix_hits, 0);
    EXPECT_EQ(cached.fleet.cached_tokens, 0);
    EXPECT_EQ(cached.fleet.peak_cached_blocks, 0);
    EXPECT_DOUBLE_EQ(base.fleet.makespan_s, cached.fleet.makespan_s);
    EXPECT_EQ(base.fleet.tokens, cached.fleet.tokens);
    EXPECT_EQ(base.fleet.peak_kv_blocks, cached.fleet.peak_kv_blocks);
    for (size_t i = 0; i < stream.size(); ++i) {
        EXPECT_EQ(base.outcomes[i].result.emissions[0].tokens,
                  cached.outcomes[i].result.emissions[0].tokens);
        EXPECT_DOUBLE_EQ(base.outcomes[i].ttft_s,
                         cached.outcomes[i].ttft_s);
    }
}

TEST(PrefixCacheServe, AdoptedResumesAreBitIdenticalToColdRuns)
{
    // The core bit-safety claim: a session that starts mid-prompt
    // from adopted cached blocks must emit exactly what an isolated
    // cold Engine::runOne produces for the same workload and seed —
    // tokens AND exit layers.
    const auto &pipe = testutil::tinyPipeline();
    const auto stream =
        serve::synthesizeStream(sharedStream(8, 1.0, 1));

    auto opts = baseOpts(2, 2);
    opts.sched.prefill.chunk_tokens = 64;
    opts.sched.prefix_cache.enabled = true;
    const auto rep = serveStream(opts, stream);

    ASSERT_GT(rep.fleet.prefix_hits, 0);
    ASSERT_GT(rep.fleet.cached_tokens, 0);

    auto engine = pipe.makeEngine(opts.engine, opts.spec);
    long hits = 0;
    for (const auto &o : rep.outcomes) {
        const auto w = serve::buildPromptWorkload(
            pipe, o.request, engine->config().q4Calibrated());
        const auto ref = engine->runOne(w, 0, o.request.seed);
        ASSERT_EQ(o.result.emissions.size(), 1u);
        EXPECT_EQ(o.result.emissions[0].tokens, ref.emissions[0].tokens);
        EXPECT_EQ(o.result.emissions[0].exit_layers,
                  ref.emissions[0].exit_layers);
        if (o.cached_tokens > 0) {
            ++hits;
            // The shared template is 3/4 of the 512-token prompt.
            EXPECT_GE(o.cached_tokens, 384);
        }
    }
    EXPECT_GT(hits, 0);
}

TEST(PrefixCacheServe, CacheOnMatchesCacheOffTokensAndImprovesTtft)
{
    // Same shared stream with and without the cache: tokens are
    // bit-identical (the cache is a pure optimization), while hits
    // skip prefill work — fewer chunked prefill tokens executed and
    // a better mean TTFT under chunked pricing.
    const auto stream =
        serve::synthesizeStream(sharedStream(8, 1.0, 1));

    auto off = baseOpts(2, 2);
    off.sched.prefill.chunk_tokens = 64;
    const auto base = serveStream(off, stream);

    auto on = off;
    on.sched.prefix_cache.enabled = true;
    const auto cached = serveStream(on, stream);

    ASSERT_GT(cached.fleet.prefix_hits, 0);
    EXPECT_EQ(base.fleet.prefix_hits, 0);
    EXPECT_EQ(base.fleet.tokens, cached.fleet.tokens);
    for (size_t i = 0; i < stream.size(); ++i) {
        EXPECT_EQ(base.outcomes[i].result.emissions[0].tokens,
                  cached.outcomes[i].result.emissions[0].tokens);
    }
    EXPECT_LT(cached.fleet.prefill_tokens, base.fleet.prefill_tokens);
    EXPECT_GT(cached.fleet.peak_cached_blocks, 0);
    EXPECT_LT(cached.fleet.mean_ttft_s, base.fleet.mean_ttft_s);
    EXPECT_LE(cached.fleet.makespan_s,
              base.fleet.makespan_s * (1.0 + 1e-9));
}

TEST(PrefixCacheServe, MultiTurnConversationsHitTheirOwnHistory)
{
    // turns = 3 with prefix_reuse = 0: no cross-conversation
    // template, but each continuation turn extends its parent's full
    // prompt — served from the cache even without a shared template.
    // max_batch = 1 serializes the turns so every continuation finds
    // its parent's prompt cached.
    const auto stream =
        serve::synthesizeStream(sharedStream(9, 0.0, 3));

    auto opts = baseOpts(1, 1);
    opts.sched.prefill.chunk_tokens = 64;
    opts.sched.prefix_cache.enabled = true;
    const auto rep = serveStream(opts, stream);

    // 3 conversations x 2 continuation turns.
    EXPECT_EQ(rep.fleet.prefix_hits, 6);
    long turn_hits = 0;
    for (const auto &o : rep.outcomes) {
        if (o.request.prompt.parent != nullptr) {
            ++turn_hits;
            // The whole parent prompt (>= 512 true tokens) is served
            // from cache.
            EXPECT_GE(o.cached_tokens, 512);
        }
    }
    EXPECT_EQ(turn_hits, 6);
}

TEST(PrefixCacheServe, CapacityBoundForcesLruEvictions)
{
    // A capacity of two prompts' worth of blocks under a stream of
    // many distinct suffixes: the tree must evict LRU leaves and the
    // run must stay lossless.
    const auto stream =
        serve::synthesizeStream(sharedStream(10, 1.0, 1));

    auto opts = baseOpts(2, 2);
    opts.sched.prefill.chunk_tokens = 64;
    opts.sched.prefix_cache.enabled = true;
    opts.sched.prefix_cache.capacity_blocks = 16;
    const auto rep = serveStream(opts, stream);

    EXPECT_GT(rep.fleet.cache_evictions, 0);
    EXPECT_LE(rep.fleet.peak_cached_blocks, 16 + 16); // cap + overshoot
    EXPECT_GT(rep.fleet.prefix_hits, 0);
    for (const auto &o : rep.outcomes) {
        EXPECT_FALSE(o.dropped);
        EXPECT_EQ(o.result.emissions[0].tokens.empty(), false);
    }
}

TEST(PrefixCacheServe, DeterministicAcrossWorkerCountsWithCacheOn)
{
    // Fleet-level cache decisions + template-affinity pinning keep
    // the whole timeline — hits, evictions, clocks, tokens —
    // bit-identical across worker counts.
    const auto stream =
        serve::synthesizeStream(sharedStream(10, 0.6, 2));

    auto opts1 = baseOpts(1, 4);
    opts1.sched.prefill.chunk_tokens = 64;
    opts1.sched.prefix_cache.enabled = true;
    const auto r1 = serveStream(opts1, stream);

    auto opts3 = baseOpts(3, 4);
    opts3.sched = opts1.sched;
    const auto r3 = serveStream(opts3, stream);

    EXPECT_GT(r1.fleet.prefix_hits, 0);
    EXPECT_EQ(r1.fleet.prefix_hits, r3.fleet.prefix_hits);
    EXPECT_EQ(r1.fleet.cached_tokens, r3.fleet.cached_tokens);
    EXPECT_EQ(r1.fleet.cache_evictions, r3.fleet.cache_evictions);
    EXPECT_EQ(r1.fleet.peak_kv_blocks, r3.fleet.peak_kv_blocks);
    EXPECT_EQ(r1.fleet.tokens, r3.fleet.tokens);
    EXPECT_DOUBLE_EQ(r1.fleet.makespan_s, r3.fleet.makespan_s);
    ASSERT_EQ(r1.outcomes.size(), r3.outcomes.size());
    for (size_t i = 0; i < r1.outcomes.size(); ++i) {
        EXPECT_EQ(r1.outcomes[i].result.emissions[0].tokens,
                  r3.outcomes[i].result.emissions[0].tokens);
        EXPECT_EQ(r1.outcomes[i].cached_tokens,
                  r3.outcomes[i].cached_tokens);
        EXPECT_DOUBLE_EQ(r1.outcomes[i].ttft_s, r3.outcomes[i].ttft_s);
    }
}

TEST(PrefixCacheServe, SurvivesKvPressureAsLowestResidencyTier)
{
    // A tight fleet budget: cached blocks must drain before any live
    // session is preempted, and the run stays lossless under the
    // combination of cache, chunked prefill and preemption.
    const auto stream =
        serve::synthesizeStream(sharedStream(10, 1.0, 1));

    auto opts = baseOpts(2, 4);
    opts.sched.prefill.chunk_tokens = 64;
    opts.sched.prefix_cache.enabled = true;
    opts.sched.kv_budget_blocks = 220;
    const auto rep = serveStream(opts, stream);

    EXPECT_GT(rep.fleet.prefix_hits, 0);
    for (const auto &o : rep.outcomes) {
        EXPECT_FALSE(o.dropped);
        EXPECT_FALSE(o.result.emissions[0].tokens.empty());
    }

    // The same stream without the budget delivers identical tokens.
    auto free_opts = opts;
    free_opts.sched.kv_budget_blocks = 0;
    const auto unbounded = serveStream(free_opts, stream);
    for (size_t i = 0; i < stream.size(); ++i) {
        EXPECT_EQ(rep.outcomes[i].result.emissions[0].tokens,
                  unbounded.outcomes[i].result.emissions[0].tokens);
    }
}
