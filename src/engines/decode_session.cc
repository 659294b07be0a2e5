#include "engines/decode_session.hh"

#include <algorithm>

#include "core/hyper_token.hh"
#include "core/token_tree.hh"
#include "util/logging.hh"

namespace specee::engines {

DecodeSession::DecodeSession(const Engine &eng,
                             const workload::Workload &w,
                             size_t instance_idx,
                             const model::DraftModel &dlm, RunResult &out,
                             Rng &rng)
    : eng_(eng),
      w_(&w),
      instance_(instance_idx),
      dlm_(&dlm),
      out_(&out),
      rng_(&rng),
      policy_(eng.makeExitPolicy(dlm, rng))
{
    specee_assert(instance_ < w_->instances.size(),
                  "session instance out of range");
    initKv(nullptr);
}

DecodeSession::DecodeSession(const Engine &eng, workload::Workload w,
                             uint64_t seed,
                             std::unique_ptr<model::SequenceKv> kv)
    : eng_(eng),
      ownedW_(std::move(w)),
      w_(&*ownedW_),
      instance_(0)
{
    specee_assert(w_->instances.size() == 1,
                  "owning sessions decode single-instance workloads");
    owned_.emplace(eng_, *w_, seed);
    dlm_ = &owned_->dlm;
    out_ = &owned_->out;
    rng_ = &owned_->rng;
    policy_ = eng_.makeExitPolicy(*dlm_, *rng_);
    initKv(std::move(kv));
}

void
DecodeSession::initKv(std::unique_ptr<model::SequenceKv> kv)
{
    if (kv == nullptr)
        kv = eng_.tm_->makeSequenceKv();
    kv_ = kv.get();
    seq_ = eng_.tm_->makeSequence(std::move(kv));
}

void
DecodeSession::startSequence()
{
    if (prefillStarted_)
        return;
    // fork() keeps the decode rng stream untouched (draft draws stay
    // comparable across engine configs); the instance index makes the
    // noise substreams distinct even for engines whose decode never
    // advances the parent rng.
    eng_.tm_->reset(seq_, rng_->fork(0x7e5e + instance_).next());
    prefillStarted_ = true;
}

int
simPrefixRows(int prefix_len, int ingested, int total)
{
    return ingested >= total
               ? prefix_len
               : static_cast<int>(static_cast<long>(prefix_len) *
                                  ingested / total);
}

void
DecodeSession::prefill()
{
    specee_assert(!prefilled_, "prefill() after prefill done");
    const auto &inst = w_->instances[instance_];
    startSequence();
    // After adoptCachedPrefix() only the uncached tail is appended;
    // cold sessions start at simFilled_ = 0 — the legacy path.
    const int prefix_len = static_cast<int>(inst.prompt.size()) - 1;
    if (prefix_len > simFilled_) {
        std::vector<int> slice(inst.prompt.begin() + simFilled_,
                               inst.prompt.end() - 1);
        eng_.tm_->prefill(seq_, slice);
        simFilled_ = prefix_len;
    }
    prefillTrue_ = prefillTotal();
    prefilled_ = true;
}

void
DecodeSession::adoptCachedPrefix(
    const std::vector<std::vector<int>> &table, int true_matched,
    int sim_matched)
{
    specee_assert(!prefillStarted_ && !prefilled_,
                  "adoptCachedPrefix() after prefill began");
    const auto &inst = w_->instances[instance_];
    const int prefix_len = static_cast<int>(inst.prompt.size()) - 1;
    specee_assert(true_matched > 0 && true_matched <= prefillTotal(),
                  "adopted true span %d outside prompt of %d",
                  true_matched, prefillTotal());
    specee_assert(sim_matched > 0 && sim_matched <= prefix_len,
                  "adopted sim span %d outside prefix of %d",
                  sim_matched, prefix_len);
    // Same sequence initialization (and rng fork) as a cold
    // prefill, so the resumed decode is bit-identical to a cold run.
    startSequence();
    kv_->adoptPrefix(table, sim_matched);
    seq_.pos = sim_matched;
    simFilled_ = sim_matched;
    prefillTrue_ = true_matched;
    if (prefillTrue_ >= prefillTotal()) {
        // Full-prompt hit: nothing left to ingest, TTFT is
        // decode-only.
        prefilled_ = true;
    }
}

int
DecodeSession::prefillRemaining() const
{
    return prefilled_ ? 0 : std::max(prefillTotal(), 1) - prefillTrue_;
}

int
DecodeSession::prefillChunk(int n_tokens)
{
    specee_assert(n_tokens > 0, "prefillChunk() needs n_tokens > 0");
    specee_assert(!prefilled_, "prefillChunk() after prefill done");
    specee_assert(!kv_->swapped(),
                  "prefillChunk() on a swapped-out session");
    specee_assert(!awaitingTransfer(),
                  "prefillChunk() on a session with an in-flight KV "
                  "transfer");
    const auto &inst = w_->instances[instance_];
    const auto before = snapshotOplog();
    // Same sequence initialization as prefill(): the chunked and
    // atomic paths are bit-identical once the prompt lands.
    startSequence();
    const int total = std::max(prefillTotal(), 1);
    const int take = std::min(n_tokens, total - prefillTrue_);
    eng_.chargePrefillChunk(out_->stats.oplog, take, prefillTrue_);
    prefillTrue_ += take;

    // Functional KV fills in proportion to the modeled progress;
    // TargetModel::prefill is a pure per-token append, so slice-wise
    // calls reproduce the atomic prefill() state exactly.
    const int prefix_len = static_cast<int>(inst.prompt.size()) - 1;
    const int sim_target = simPrefixRows(prefix_len, prefillTrue_, total);
    if (sim_target > simFilled_) {
        std::vector<int> slice(
            inst.prompt.begin() + simFilled_,
            inst.prompt.begin() + sim_target);
        eng_.tm_->prefill(seq_, slice);
        simFilled_ = sim_target;
    }
    if (prefillTrue_ >= total)
        prefilled_ = true;
    // A prefill chunk streams every layer's weights: it occupies the
    // whole pipeline and skips no KV.
    lastDeepest_ = eng_.mcfg_.n_layers;
    lastFillLo_ = eng_.mcfg_.n_layers;
    captureCost(before, 0);
    return take;
}

bool
DecodeSession::finished() const
{
    return stepIdx_ >= w_->instances[instance_].steps.size();
}

std::array<std::pair<double, double>, hw::kNumOpClasses>
DecodeSession::snapshotOplog() const
{
    std::array<std::pair<double, double>, hw::kNumOpClasses> snap;
    for (int c = 0; c < hw::kNumOpClasses; ++c) {
        const auto &tot =
            out_->stats.oplog.totals(static_cast<hw::OpClass>(c));
        snap[static_cast<size_t>(c)] = {tot.time_s, tot.energy_j};
    }
    return snap;
}

void
DecodeSession::captureCost(
    const std::array<std::pair<double, double>, hw::kNumOpClasses>
        &before,
    int tokens)
{
    const model::StageGraph &g = eng_.stages_;
    const int n_stages = g.nStages();
    const int L = g.nLayers();

    last_ = StepCost{};
    last_.tokens = tokens;
    last_.deepest_layer = lastDeepest_;
    last_.stages_used = g.stagesForDepth(lastDeepest_);
    last_.stage_shared_s.assign(static_cast<size_t>(n_stages), 0.0);
    last_.stage_shared_j.assign(static_cast<size_t>(n_stages), 0.0);
    // Apportion a layer-range charge across the stages it overlaps.
    const auto spread = [&](double dt, double de, int lo, int hi) {
        const int span = hi - lo;
        if (span <= 0)
            return;
        for (int s = 0; s < n_stages; ++s) {
            const double f =
                static_cast<double>(g.overlapLayers(s, lo, hi)) /
                static_cast<double>(span);
            last_.stage_shared_s[static_cast<size_t>(s)] += dt * f;
            last_.stage_shared_j[static_cast<size_t>(s)] += de * f;
        }
    };
    const auto onStage = [&](double dt, double de, int s) {
        last_.stage_shared_s[static_cast<size_t>(s)] += dt;
        last_.stage_shared_j[static_cast<size_t>(s)] += de;
    };
    for (int c = 0; c < hw::kNumOpClasses; ++c) {
        const auto cls = static_cast<hw::OpClass>(c);
        const auto &tot = out_->stats.oplog.totals(cls);
        const double dt =
            tot.time_s - before[static_cast<size_t>(c)].first;
        const double de =
            tot.energy_j - before[static_cast<size_t>(c)].second;
        if (dt != 0.0)
            last_.class_s.emplace_back(c, dt);
        if (!hw::isBatchAmortized(cls)) {
            last_.private_s += dt;
            last_.private_j += de;
            continue;
        }
        last_.shared_s += dt;
        last_.shared_j += de;
        if (dt == 0.0 && de == 0.0)
            continue;
        switch (cls) {
        case hw::OpClass::DecoderLayer:
        case hw::OpClass::Sync:
            // Per-layer work of the traversed range.
            spread(dt, de, 0, lastDeepest_);
            break;
        case hw::OpClass::KvFill:
            // k/v projections of the skipped tail — the downstream
            // stages still stream these thin weights after an exit,
            // which is why occupancy (stages_used) tracks only the
            // full-weight decoder stream.
            spread(dt, de, lastFillLo_, L);
            break;
        case hw::OpClass::PrefillWeights:
            spread(dt, de, 0, L);
            break;
        case hw::OpClass::LmHeadFull:
            // The head applies where the pass stopped (EE-LLM
            // replicates it at exit points).
            onStage(dt, de,
                    g.stageOfLayer(std::max(lastDeepest_, 1) - 1));
            break;
        default:
            // Embed, Draft, Overhead: front-of-pipeline work.
            onStage(dt, de, 0);
            break;
        }
    }
}

double
DecodeSession::swapOut()
{
    kv_->swapOut();
    return eng_.chargeKvSwap(out_->stats.oplog, hw::OpClass::KvSwapOut,
                             modeledPositions());
}

double
DecodeSession::swapIn()
{
    kv_->swapIn();
    return eng_.chargeKvSwap(out_->stats.oplog, hw::OpClass::KvSwapIn,
                             modeledPositions());
}

double
DecodeSession::chargeHandoff()
{
    specee_assert(prefilled_,
                  "KV handoff of a session that has not finished "
                  "prefill");
    return eng_.chargeKvHandoff(out_->stats.oplog, modeledPositions());
}

double
DecodeSession::swapRoundTripSeconds() const
{
    return 2.0 * eng_.kvSwapSeconds(modeledPositions());
}

double
DecodeSession::modeledCostSoFar() const
{
    // Exclude past swap transfers: a recompute replay re-prices the
    // decode/prefill work, not the host-link traffic of earlier
    // preemptions.
    const auto &log = out_->stats.oplog;
    return log.grand().time_s -
           log.totals(hw::OpClass::KvSwapOut).time_s -
           log.totals(hw::OpClass::KvSwapIn).time_s;
}

bool
DecodeSession::step()
{
    specee_assert(prefilled_, "step() before prefill()");
    specee_assert(!kv_->swapped(), "step() on a swapped-out session");
    specee_assert(!awaitingTransfer(),
                  "step() on a session with an in-flight KV transfer");
    if (finished())
        return false;

    const auto before = snapshotOplog();
    const auto tokens_before = em_.tokens.size();

    const bool more = eng_.ecfg_.spec_decode ? stepSpeculative()
                                             : stepAutoregressive();

    captureCost(before,
                static_cast<int>(em_.tokens.size() - tokens_before));
    return more;
}

TokenOutcome
DecodeSession::commitNext()
{
    const auto &inst = w_->instances[instance_];
    const int input =
        em_.tokens.empty() ? inst.prompt.back() : em_.tokens.back();
    const TokenOutcome o = eng_.decodeToken(seq_, input, inst.steps[stepIdx_],
                                            policy_.get());
    RunStats &st = out_->stats;
    st.predictor_invocations += o.predictor_checks + (o.raee_probe ? 1 : 0);
    st.avg_active_predictors += o.predictor_checks;
    st.verify_calls += o.verify_calls;
    st.verify_rejects += o.verify_rejects;
    if (o.exited()) {
        ++st.exits;
        ++st.exit_histogram[static_cast<size_t>(o.exit_layer)];
    }
    st.avg_forward_layers += o.layers_used;
    ++st.tokens;
    em_.tokens.push_back(o.token);
    em_.exit_layers.push_back(o.layers_used);
    ++stepIdx_;
    return o;
}

bool
DecodeSession::stepAutoregressive()
{
    const int logical_pos =
        w_->true_prompt_len + static_cast<int>(stepIdx_);
    const TokenOutcome o = commitNext();
    eng_.chargeToken(out_->stats.oplog, o, logical_pos);
    // An exited token streams weights down to its exit layer only
    // and back-fills KV for the skipped tail.
    lastDeepest_ = o.layers_used;
    lastFillLo_ = o.layers_used;
    return !finished();
}

bool
DecodeSession::stepSpeculative()
{
    // First token decodes normally (as in EAGLE).
    if (stepIdx_ == 0)
        return stepAutoregressive();

    const auto &inst = w_->instances[instance_];
    const bool ee = eng_.ecfg_.exit == ExitMode::SpecEE;
    RunResult &out = *out_;
    const size_t step = stepIdx_;

    // Draft a token tree from the last committed token.
    const int root_tok = em_.tokens.back();
    std::vector<model::TokenScript> chain;
    for (size_t d = 0;
         d < eng_.ecfg_.tree.widths.size() && step + d < inst.steps.size();
         ++d)
        chain.push_back(inst.steps[step + d]);
    std::vector<int> widths(
        eng_.ecfg_.tree.widths.begin(),
        eng_.ecfg_.tree.widths.begin() + static_cast<long>(chain.size()));
    auto tree =
        core::TokenTree::draft(*dlm_, root_tok, chain, widths, *rng_);
    eng_.chargeDraft(out.stats.oplog, static_cast<int>(widths.size()));

    out.stats.map_complexity_independent +=
        core::MergedMapping::independentMappingComplexity(tree);
    const long n_paths = core::MergedMapping::mergedMappingComplexity(tree);
    out.stats.map_complexity_merged += n_paths;

    // Walk the tree: process the root's continuation, then follow
    // accepted children.
    int pass_layers = 0;
    int node_id = 0; // tree root
    size_t d = 0;
    int max_sched_layers = 0;
    int fill_nodes = 0;
    int min_exit_layers = eng_.mcfg_.n_layers;
    while (!finished() && d <= static_cast<size_t>(tree.depth())) {
        // Priced at pass granularity below, not per token.
        const TokenOutcome o = commitNext();
        if (o.exited()) {
            ++fill_nodes;
            min_exit_layers = std::min(min_exit_layers, o.layers_used);
        }
        pass_layers = std::max(pass_layers, o.layers_used);
        max_sched_layers = std::max(max_sched_layers, o.predictor_checks);

        // Does a drafted child continue the chain?
        int next_node = -1;
        for (int kid : tree.children(node_id)) {
            if (tree.node(kid).token == o.token) {
                next_node = kid;
                break;
            }
        }
        if (next_node < 0)
            break;
        node_id = next_node;
        ++d;
    }

    // Pass-level cost: one batched TLM pass over the whole tree, cut
    // at the Cannikin exit depth; grouped predictor work scales with
    // the number of paths.
    const int batch = 1 + tree.draftCount();
    eng_.chargeLayers(out.stats.oplog, pass_layers, batch,
                      w_->true_prompt_len + static_cast<int>(stepIdx_));
    // Batched KV fill: the k/v projection weights of each skipped
    // layer are read once for all exited nodes (no layers when none
    // exited).
    eng_.chargeKvFill(out.stats.oplog, eng_.mcfg_.n_layers - min_exit_layers,
                      fill_nodes);
    // One batched full-head application per pass: the token
    // verification of vanilla EAGLE, or — under T3 — the exit
    // verification at the Cannikin exit layer (the head is read once
    // either way).
    eng_.chargeLmHeadFull(out.stats.oplog, batch);
    if (ee && max_sched_layers > 0) {
        // T3: per activated layer the engine issues ONE grouped
        // sliced GEMV and ONE batched predictor MLP covering every
        // hyper-token lane (Fig. 13), instead of one launch pipeline
        // per tree node.
        eng_.chargeLmHeadSliced(out.stats.oplog,
                                max_sched_layers * static_cast<int>(n_paths),
                                max_sched_layers);
        eng_.chargePredictor(out.stats.oplog,
                             max_sched_layers * static_cast<int>(n_paths),
                             max_sched_layers);
    }
    eng_.chargeOverhead(out.stats.oplog);
    if (eng_.ecfg_.spec_pass_overhead_s > 0.0) {
        eng_.cost_->accountFixed(out.stats.oplog, hw::OpClass::Overhead,
                                 eng_.ecfg_.spec_pass_overhead_s);
    }
    ++out.stats.passes;
    committed_ += static_cast<long>(stepIdx_ - step);
    // The pass's weight stream runs to the Cannikin cut; KV back-fill
    // covers the layers below the shallowest exit (empty when no node
    // exited — min_exit_layers stays at full depth).
    lastDeepest_ = pass_layers;
    lastFillLo_ = min_exit_layers;
    return !finished();
}

long
DecodeSession::modeledPositions() const
{
    // Mid-prefill, only the ingested prefix occupies modeled KV.
    const long prompt = prefilled_
                            ? static_cast<long>(w_->true_prompt_len)
                            : static_cast<long>(prefillTrue_);
    return prompt + static_cast<long>(em_.tokens.size());
}

void
DecodeSession::finishEmission()
{
    specee_assert(!emissionDone_, "emission already finished");
    out_->emissions.push_back(std::move(em_));
    emissionDone_ = true;
}

RunResult
DecodeSession::finalize()
{
    specee_assert(owned_.has_value(),
                  "finalize() is only for owning sessions");
    if (!emissionDone_)
        finishEmission();
    eng_.finalizeRun(*out_, *w_, committed_);
    return std::move(owned_->out);
}

} // namespace specee::engines
