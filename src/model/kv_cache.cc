#include "model/kv_cache.hh"

#include <algorithm>

#include "util/logging.hh"

namespace specee::model {

KvCache::KvCache(int n_layers, int max_seq, int hidden)
    : nLayers_(n_layers),
      maxSeq_(max_seq),
      hidden_(hidden),
      k_(static_cast<size_t>(n_layers)),
      v_(static_cast<size_t>(n_layers)),
      len_(static_cast<size_t>(n_layers), 0)
{
}

int
KvCache::append(int layer, tensor::CSpan k, tensor::CSpan v)
{
    specee_assert(layer >= 0 && layer < nLayers_, "bad layer %d", layer);
    int &len = len_[static_cast<size_t>(layer)];
    specee_assert(len < maxSeq_, "kv cache overflow at layer %d", layer);
    specee_assert(k.size() == static_cast<size_t>(hidden_) &&
                  v.size() == static_cast<size_t>(hidden_),
                  "kv dim mismatch");
    tensor::Matrix &km = k_[static_cast<size_t>(layer)];
    tensor::Matrix &vm = v_[static_cast<size_t>(layer)];
    if (km.empty()) {
        km.resize(static_cast<size_t>(maxSeq_),
                  static_cast<size_t>(hidden_));
        vm.resize(static_cast<size_t>(maxSeq_),
                  static_cast<size_t>(hidden_));
    }
    std::copy(k.begin(), k.end(),
              km.row(static_cast<size_t>(len)).begin());
    std::copy(v.begin(), v.end(),
              vm.row(static_cast<size_t>(len)).begin());
    return len++;
}

tensor::CSpan
KvCache::key(int layer, int pos) const
{
    specee_assert(pos < len_[static_cast<size_t>(layer)], "kv read past end");
    return k_[static_cast<size_t>(layer)].row(static_cast<size_t>(pos));
}

tensor::CSpan
KvCache::value(int layer, int pos) const
{
    specee_assert(pos < len_[static_cast<size_t>(layer)], "kv read past end");
    return v_[static_cast<size_t>(layer)].row(static_cast<size_t>(pos));
}

int
KvCache::length(int layer) const
{
    return len_[static_cast<size_t>(layer)];
}

void
KvCache::truncate(int new_len)
{
    for (auto &len : len_)
        len = std::min(len, new_len);
}

void
KvCache::clear()
{
    std::fill(len_.begin(), len_.end(), 0);
}

} // namespace specee::model
