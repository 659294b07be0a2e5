/**
 * @file
 * Token tree and hyper-token mapping tests (§6): tree construction,
 * path enumeration, draft hit-rate behaviour, Cannikin law, and the
 * exponential-vs-linear mapping complexity claim.
 */

#include <gtest/gtest.h>

#include "core/hyper_token.hh"
#include "core/token_tree.hh"
#include "oracle/corpus.hh"

using namespace specee;
using namespace specee::core;

namespace {

TokenTree
manualTree()
{
    // root(0)=99 -> a(1),b(2),c(3); a -> d(4),e(5); d -> f(6)
    TokenTree t(99);
    int a = t.addNode(0, 10);
    t.addNode(0, 11);
    t.addNode(0, 12);
    int d = t.addNode(a, 20);
    t.addNode(a, 21);
    t.addNode(d, 30);
    return t;
}

} // namespace

TEST(TokenTree, ShapeAccessors)
{
    auto t = manualTree();
    EXPECT_EQ(t.size(), 7);
    EXPECT_EQ(t.draftCount(), 6);
    EXPECT_EQ(t.rootToken(), 99);
    EXPECT_EQ(t.depth(), 3);
    EXPECT_EQ(t.children(0), (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(t.node(4).depth, 2);
}

TEST(TokenTree, LeafPathsEnumeration)
{
    auto t = manualTree();
    auto paths = t.leafPaths();
    // Leaves: b(2), c(3), e(5), f(6) -> 4 paths.
    ASSERT_EQ(paths.size(), 4u);
    // The deepest path is root->a->d->f.
    bool found_deep = false;
    for (const auto &p : paths) {
        if (p.size() == 3) {
            EXPECT_EQ(t.pathTokens(p), (std::vector<int>{10, 20, 30}));
            found_deep = true;
        }
    }
    EXPECT_TRUE(found_deep);
}

TEST(TokenTree, DraftContainsTargetAtHighHitRate)
{
    auto cfg = model::ModelConfig::tiny();
    oracle::SyntheticCorpus corpus(cfg.sim.vocab, 5);
    model::DraftModel dlm(cfg, corpus, 1.0); // always hit
    Rng rng(6);
    std::vector<model::TokenScript> chain(3);
    chain[0].target = 100;
    chain[1].target = 101;
    chain[2].target = 102;
    int level1_hits = 0;
    for (int i = 0; i < 50; ++i) {
        auto t = TokenTree::draft(dlm, 7, chain, {4, 2, 2}, rng);
        for (int kid : t.children(0)) {
            if (t.node(kid).token == 100)
                ++level1_hits;
        }
    }
    EXPECT_EQ(level1_hits, 50);
}

TEST(TokenTree, DraftNeverContainsTargetAtZeroHitRate)
{
    auto cfg = model::ModelConfig::tiny();
    oracle::SyntheticCorpus corpus(cfg.sim.vocab, 7);
    model::DraftModel dlm(cfg, corpus, 0.0);
    Rng rng(8);
    std::vector<model::TokenScript> chain(2);
    chain[0].target = 100;
    chain[1].target = 101;
    for (int i = 0; i < 20; ++i) {
        auto t = TokenTree::draft(dlm, 9, chain, {4, 2}, rng);
        for (int kid : t.children(0))
            EXPECT_NE(t.node(kid).token, 100);
    }
}

TEST(TokenTree, DraftShapeFollowsWidths)
{
    auto cfg = model::ModelConfig::tiny();
    oracle::SyntheticCorpus corpus(cfg.sim.vocab, 9);
    model::DraftModel dlm(cfg, corpus, 0.9);
    Rng rng(10);
    std::vector<model::TokenScript> chain(3);
    chain[0].target = 50;
    chain[1].target = 51;
    chain[2].target = 52;
    auto t = TokenTree::draft(dlm, 3, chain, {4, 2, 2}, rng);
    EXPECT_EQ(t.draftCount(), 8);
    EXPECT_EQ(static_cast<int>(t.children(0).size()), 4);
    EXPECT_EQ(t.expandedChain().size(), 3u);
    // Chain nodes are each level's first child.
    EXPECT_EQ(t.node(t.expandedChain()[0]).depth, 1);
    EXPECT_EQ(t.node(t.expandedChain()[1]).depth, 2);
}

TEST(TokenTree, DraftTokensAreDistinctPerLevel)
{
    auto cfg = model::ModelConfig::tiny();
    oracle::SyntheticCorpus corpus(cfg.sim.vocab, 11);
    model::DraftModel dlm(cfg, corpus, 0.9);
    Rng rng(12);
    std::vector<model::TokenScript> chain(1);
    chain[0].target = 60;
    for (int i = 0; i < 20; ++i) {
        auto t = TokenTree::draft(dlm, i, chain, {4}, rng);
        auto kids = t.children(0);
        std::vector<int> toks;
        for (int k : kids)
            toks.push_back(t.node(k).token);
        std::sort(toks.begin(), toks.end());
        EXPECT_EQ(std::unique(toks.begin(), toks.end()), toks.end());
    }
}

// --- merged mapping -----------------------------------------------------

TEST(MergedMapping, HyperTokensMatchLeafPaths)
{
    auto t = manualTree();
    auto hts = MergedMapping::build(t);
    ASSERT_EQ(hts.size(), 4u);
    int max_len = 0;
    for (const auto &h : hts)
        max_len = std::max(max_len, h.length());
    EXPECT_EQ(max_len, 3);
}

TEST(MergedMapping, ComplexityExponentialVsLinear)
{
    auto t = manualTree();
    // Widths per level: 3, 2, 1 -> independent = 6; merged = 4 paths.
    EXPECT_EQ(MergedMapping::independentMappingComplexity(t), 6);
    EXPECT_EQ(MergedMapping::mergedMappingComplexity(t), 4);
}

TEST(MergedMapping, ComplexityGapGrowsWithDepth)
{
    // A uniform binary tree of depth d: independent grows as the
    // product of level widths (2^1 * 2^2 * ...), merged as the leaf
    // count (2^d).
    long prev_ratio = 1;
    for (int depth = 2; depth <= 4; ++depth) {
        TokenTree t(0);
        std::vector<int> level = {0};
        int tok = 1;
        for (int d = 0; d < depth; ++d) {
            std::vector<int> next;
            for (int id : level) {
                next.push_back(t.addNode(id, tok++));
                next.push_back(t.addNode(id, tok++));
            }
            level = next;
        }
        const long ind = MergedMapping::independentMappingComplexity(t);
        const long mer = MergedMapping::mergedMappingComplexity(t);
        EXPECT_GT(ind / mer, prev_ratio);
        prev_ratio = ind / mer;
    }
}

TEST(MergedMapping, CannikinIsMax)
{
    EXPECT_EQ(MergedMapping::cannikinExitLayer({22, 30, 25}), 30);
    EXPECT_EQ(MergedMapping::cannikinExitLayer({5}), 5);
}

TEST(MergedMapping, GroupedLogitsDelegateToHead)
{
    auto cfg = model::ModelConfig::tiny();
    model::Weights w(cfg, tensor::WeightBackend::Fp32,
                     tensor::WeightBackend::Fp32);
    model::LmHead head(w.embedding(), w.rmsFinal());
    tensor::Vec h1(static_cast<size_t>(cfg.sim.hidden), 0.3f);
    tensor::Vec h2(static_cast<size_t>(cfg.sim.hidden), -0.2f);
    std::vector<tensor::CSpan> hiddens = {h1, h2};
    std::vector<std::vector<int>> cands = {{1, 2, 3, 4}, {5, 6, 7, 8}};
    std::vector<tensor::Vec> out;
    MergedMapping::groupedSlicedLogits(head, hiddens, cands, out);
    ASSERT_EQ(out.size(), 2u);
    tensor::Vec direct(4);
    head.sliced(h1, cands[0], direct);
    for (int i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(out[0][static_cast<size_t>(i)],
                        direct[static_cast<size_t>(i)]);
}
