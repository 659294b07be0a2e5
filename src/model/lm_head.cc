#include "model/lm_head.hh"

#include "tensor/kernels.hh"
#include "util/logging.hh"

namespace specee::model {

LmHead::LmHead(const tensor::WeightStore &embedding,
               const tensor::Vec &rms_final)
    : embedding_(embedding),
      rmsFinal_(rms_final)
{
    specee_assert(embedding.cols() == rms_final.size(),
                  "lm head dims mismatch");
}

tensor::Vec
LmHead::normalize(tensor::CSpan hidden_state) const
{
    tensor::Vec normed(embedding_.cols());
    tensor::rmsnorm(hidden_state, rmsFinal_, normed);
    return normed;
}

void
LmHead::full(tensor::CSpan hidden_state, tensor::Span logits) const
{
    specee_assert(logits.size() == embedding_.rows(), "full logits size");
    embedding_.gemv(normalize(hidden_state), logits);
}

void
LmHead::fullRows(tensor::CSpan hiddens, tensor::Span logits) const
{
    const size_t h = embedding_.cols();
    const size_t v = embedding_.rows();
    const size_t n = hiddens.size() / h;
    specee_assert(hiddens.size() == n * h && logits.size() == n * v,
                  "fullRows sizes");
    tensor::Vec normed(hiddens.size());
    for (size_t j = 0; j < n; ++j) {
        tensor::rmsnorm(hiddens.subspan(j * h, h), rmsFinal_,
                        tensor::Span(normed).subspan(j * h, h));
    }
    embedding_.gemvBatch(normed, logits);
}

void
LmHead::sliced(tensor::CSpan hidden_state, const std::vector<int> &tokens,
               tensor::Span out) const
{
    specee_assert(out.size() == tokens.size(), "sliced logits size");
    embedding_.gemvRows(tokens, normalize(hidden_state), out);
}

void
LmHead::grouped(const std::vector<tensor::CSpan> &hiddens,
                const std::vector<std::vector<int>> &groups,
                std::vector<tensor::Vec> &out) const
{
    specee_assert(hiddens.size() == groups.size(), "grouped sizes");
    out.resize(groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
        out[g].assign(groups[g].size(), 0.0f);
        embedding_.gemvRows(groups[g], normalize(hiddens[g]), out[g]);
    }
}

int
LmHead::argmaxToken(tensor::CSpan hidden_state) const
{
    tensor::Vec logits(embedding_.rows());
    full(hidden_state, logits);
    return static_cast<int>(tensor::argmax(logits));
}

bool
LmHead::isArgmax(tensor::CSpan hidden_state, int token) const
{
    return isArgmaxRows(hidden_state, token)[0];
}

std::vector<bool>
LmHead::isArgmaxRows(tensor::CSpan hiddens, int token) const
{
    const size_t h = embedding_.cols();
    const size_t n = hiddens.size() / h;
    specee_assert(n > 0 && hiddens.size() == n * h, "isArgmaxRows sizes");
    specee_assert(token >= 0 && token < vocab(), "token %d out of range",
                  token);
    // rowDot(r) is the store's gemv() output r, so every logit here is
    // the one full() computes.
    const auto t = static_cast<size_t>(token);
    tensor::Vec normed(hiddens.size());
    std::vector<float> logit(n);
    std::vector<size_t> running(n);
    for (size_t j = 0; j < n; ++j) {
        const tensor::Span row = tensor::Span(normed).subspan(j * h, h);
        tensor::rmsnorm(hiddens.subspan(j * h, h), rmsFinal_, row);
        logit[j] = embedding_.rowDot(t, row);
        running[j] = j;
    }
    std::vector<bool> hit(n, false);
    for (size_t r = 0; r < embedding_.rows() && !running.empty(); ++r) {
        if (r == t)
            continue;
        std::erase_if(running, [&](size_t j) {
            const float x = embedding_.rowDot(
                r, tensor::CSpan(normed).subspan(j * h, h));
            return r < t ? x >= logit[j] : x > logit[j];
        });
    }
    for (size_t j : running)
        hit[j] = true;
    return hit;
}

} // namespace specee::model
