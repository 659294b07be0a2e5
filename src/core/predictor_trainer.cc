#include "core/predictor_trainer.hh"

#include <algorithm>
#include <array>

#include "core/features.hh"
#include "tensor/kernels.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace specee::core {

namespace {

/**
 * The profiling decode both collectors share. For each instance of
 * `w` in order: reset the sequence onto the instance's noise
 * substream, prefill its prompt, draw each token's speculative set
 * from `rng`, then decode the scripted tokens as one block
 * (TargetModel::decodeScripted: layer by layer on a team of threads,
 * each weight row read once per four tokens). visit(inst, spec,
 * hiddens) then sees the instance, its per-token speculative sets,
 * and hiddens row t * n_exit + l = token t after exit layer l. One
 * sequence state and one instance's hidden states are held, as a
 * sequential pass does, and every value drawn is the same for every
 * caller, so collect() and collectAdaInfer() see the same rows.
 */
template <typename Visit>
void
replayProfile(const workload::Workload &w, const model::TargetModel &tm,
              const model::DraftModel &dlm, uint64_t seed, Visit &&visit)
{
    const model::ModelConfig &cfg = tm.config();
    const auto n_exit = static_cast<size_t>(cfg.n_layers - 1);
    const auto hidden = static_cast<size_t>(cfg.sim.hidden);

    // Sized once for the longest instance.
    size_t max_tok = 0;
    for (const auto &inst : w.instances)
        max_tok = std::max(max_tok, inst.steps.size());
    tensor::Matrix hiddens(max_tok * n_exit, hidden);
    std::vector<int> inputs;
    std::vector<std::vector<int>> spec;

    model::SequenceState seq = tm.makeSequence();
    Rng rng(seed);
    for (size_t ii = 0; ii < w.instances.size(); ++ii) {
        const auto &inst = w.instances[ii];
        const size_t n_tok = inst.steps.size();
        // Independent noise substream per profiled instance (fork()
        // leaves the speculation rng stream untouched), so collected
        // features cover the noise diversity served requests see.
        tm.reset(seq, rng.fork(0x7e5e + ii).next());
        tm.prefill(seq, inst.prompt);
        // Each token feeds back the previous target, so the whole
        // block is known before it runs.
        inputs.resize(n_tok);
        spec.resize(n_tok);
        int prev = inst.prompt.back();
        for (size_t t = 0; t < n_tok; ++t) {
            inputs[t] = prev;
            spec[t] = dlm.speculate(prev, inst.steps[t].target,
                                    cfg.num_spec_tokens, rng);
            prev = inst.steps[t].target;
        }
        tm.decodeScripted(
            seq, inputs, inst.steps,
            tensor::Span(hiddens.data(), n_tok * n_exit * hidden));
        visit(inst, spec, hiddens);
    }
}

} // namespace

ProfileData
PredictorTrainer::collect(const workload::Workload &w,
                          const model::TargetModel &tm,
                          const model::DraftModel &dlm, uint64_t seed)
{
    const model::ModelConfig &cfg = tm.config();
    const auto n_exit = static_cast<size_t>(cfg.n_layers - 1);
    const auto n_feat = static_cast<size_t>(3 * cfg.num_spec_tokens);
    const auto hidden = static_cast<size_t>(cfg.sim.hidden);

    ProfileData data;
    data.specee.assign(n_exit, nn::Dataset(n_feat));
    data.oracle_exit_hist.assign(n_exit, 0);

    tensor::Matrix feats;
    std::vector<float> labels;
    replayProfile(w, tm, dlm, seed, [&](const workload::Instance &inst,
                                        const std::vector<std::vector<int>>
                                            &spec,
                                        const tensor::Matrix &hiddens) {
        const size_t n_tok = inst.steps.size();
        feats.resize(n_tok * n_exit, n_feat);
        labels.resize(n_tok * n_exit);
        // Tokens are independent: each task labels one token's rows,
        // whose hits share the head's reads, and extracts its
        // features, whose variation term folds in the previous exit
        // layer, so they run layer by layer.
        parallelFor(n_tok, [&](size_t t) {
            const size_t r0 = t * n_exit;
            // Label per §7.4.4: exiting here emits the same token as
            // the full forward pass (which emits the script target by
            // construction).
            const std::vector<bool> hit = tm.lmHead().isArgmaxRows(
                tensor::CSpan(hiddens.row(r0).data(), n_exit * hidden),
                inst.steps[t].target);
            FeatureExtractor fx(cfg.num_spec_tokens);
            fx.beginToken(spec[t]);
            for (size_t l = 0; l < n_exit; ++l) {
                const tensor::CSpan f =
                    fx.extract(tm.lmHead(), hiddens.row(r0 + l));
                std::copy(f.begin(), f.end(), feats.row(r0 + l).begin());
                labels[r0 + l] = hit[l] ? 1.0f : 0.0f;
            }
        });

        for (size_t t = 0; t < n_tok; ++t) {
            // RAEE probe: the hidden state after layer 0.
            const tensor::CSpan h = hiddens.row(t * n_exit);
            data.raee_probes.emplace_back(h.begin(), h.end());
            int first_true = -1;
            for (size_t l = 0; l < n_exit; ++l) {
                const size_t r = t * n_exit + l;
                data.specee[l].add(feats.row(r), labels[r]);
                if (labels[r] > 0.5f && first_true < 0)
                    first_true = static_cast<int>(l);
            }
            if (first_true >= 0)
                ++data.oracle_exit_hist[static_cast<size_t>(first_true)];
            data.raee_exits.push_back(
                first_true >= 0 ? first_true : cfg.n_layers - 1);
        }
    });
    return data;
}

std::vector<nn::Dataset>
PredictorTrainer::collectAdaInfer(const workload::Workload &w,
                                  const model::TargetModel &tm,
                                  const model::DraftModel &dlm,
                                  uint64_t seed)
{
    const model::ModelConfig &cfg = tm.config();
    const auto n_exit = static_cast<size_t>(cfg.n_layers - 1);
    const auto hidden = static_cast<size_t>(cfg.sim.hidden);
    const auto vocab = static_cast<size_t>(cfg.sim.vocab);

    std::vector<nn::Dataset> data(n_exit, nn::Dataset(3));
    std::vector<float> labels;
    std::vector<std::array<float, 3>> ada;
    // The full-vocabulary head behind each row is independent, so
    // parallelFor runs kHeadRows rows per task, one batched pass over
    // the embedding each. A task's logits (kHeadRows x vocab, 64 KB
    // at vocab 4096) stay below malloc's mmap threshold, so the
    // buffers the workers free and keep in their arenas stay small.
    constexpr size_t kHeadRows = 4;
    replayProfile(w, tm, dlm, seed, [&](const workload::Instance &inst,
                                        const std::vector<std::vector<int>>
                                            &,
                                        const tensor::Matrix &hiddens) {
        const size_t n_rows = inst.steps.size() * n_exit;
        labels.resize(n_rows);
        ada.resize(n_rows);
        parallelFor((n_rows + kHeadRows - 1) / kHeadRows, [&](size_t k) {
            const size_t r0 = k * kHeadRows;
            const size_t n = std::min(kHeadRows, n_rows - r0);
            tensor::Vec logits(n * vocab);
            tm.lmHead().fullRows(
                tensor::CSpan(hiddens.row(r0).data(), n * hidden), logits);
            for (size_t j = 0; j < n; ++j) {
                const size_t r = r0 + j;
                const tensor::Span row =
                    tensor::Span(logits).subspan(j * vocab, vocab);
                const int global = static_cast<int>(tensor::argmax(row));
                labels[r] =
                    global == inst.steps[r / n_exit].target ? 1.0f : 0.0f;
                ada[r] = adaInferFeatures(row);
            }
        });
        for (size_t r = 0; r < n_rows; ++r)
            data[r % n_exit].add(
                tensor::CSpan(ada[r].data(), ada[r].size()), labels[r]);
    });
    return data;
}

namespace {

/** Shuffle, subsample and split one layer's dataset. */
std::pair<nn::Dataset, nn::Dataset>
prepare(const nn::Dataset &all, const TrainerOptions &opts, Rng &rng)
{
    nn::Dataset shuffled = all;
    shuffled.shuffle(rng);
    auto [train_full, test] = shuffled.split(opts.train_frac);
    const size_t use = std::max<size_t>(
        8, static_cast<size_t>(static_cast<double>(train_full.size()) *
                               opts.data_ratio));
    return {train_full.head(use), std::move(test)};
}

} // namespace

TrainReport
PredictorTrainer::train(ExitPredictor &bank, const ProfileData &data,
                        const TrainerOptions &opts)
{
    specee_assert(static_cast<size_t>(bank.nExitLayers()) ==
                  data.specee.size(),
                  "bank/data layer mismatch");
    const auto n_exit = static_cast<size_t>(bank.nExitLayers());
    TrainReport rep;
    // Splits draw from one rng stream in layer order; the fits are
    // then independent per layer.
    Rng rng(opts.train.seed ^ 0x7121);
    std::vector<std::pair<nn::Dataset, nn::Dataset>> sets;
    for (size_t l = 0; l < n_exit; ++l) {
        sets.push_back(prepare(data.specee[l], opts, rng));
        rep.samples_used += sets.back().first.size();
    }

    std::vector<double> train_acc(n_exit);
    rep.per_layer_test_accuracy.resize(n_exit);
    parallelFor(n_exit, [&](size_t l) {
        nn::Mlp &mlp = bank.mlp(static_cast<int>(l));
        train_acc[l] = mlp.fit(sets[l].first, opts.train).train_accuracy;
        rep.per_layer_test_accuracy[l] = mlp.accuracy(sets[l].second);
    });

    // Summed in layer order, as a sequential loop would.
    double test_sum = 0.0, train_sum = 0.0;
    for (size_t l = 0; l < n_exit; ++l) {
        train_sum += train_acc[l];
        test_sum += rep.per_layer_test_accuracy[l];
    }
    rep.mean_test_accuracy = test_sum / bank.nExitLayers();
    rep.mean_train_accuracy = train_sum / bank.nExitLayers();
    return rep;
}

TrainReport
PredictorTrainer::trainAdaInfer(std::vector<nn::LinearSvm> &bank,
                                const std::vector<nn::Dataset> &data,
                                const TrainerOptions &opts)
{
    const int n_exit = static_cast<int>(data.size());
    bank.assign(static_cast<size_t>(n_exit), nn::LinearSvm(3));
    TrainReport rep;
    Rng rng(opts.train.seed ^ 0xada1);
    double test_sum = 0.0;
    for (int l = 0; l < n_exit; ++l) {
        auto [train_set, test_set] =
            prepare(data[static_cast<size_t>(l)], opts, rng);
        rep.samples_used += train_set.size();
        bank[static_cast<size_t>(l)].fit(train_set, 25, 1e-2, 1e-4,
                                         opts.train.seed + l);
        const double acc = bank[static_cast<size_t>(l)].accuracy(test_set);
        rep.per_layer_test_accuracy.push_back(acc);
        test_sum += acc;
    }
    rep.mean_test_accuracy = test_sum / n_exit;
    return rep;
}

} // namespace specee::core
