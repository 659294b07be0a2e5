/**
 * @file
 * RAEE baseline (§2.3, Table 1): retrieval-augmented early exiting.
 *
 * RAEE builds an offline database mapping hidden-state embeddings to
 * observed exit layers; at runtime it retrieves the k nearest
 * neighbours of the current token's early hidden state and
 * superposes their exit-layer distributions to pick the exit layer
 * directly (training-free, but the database is large — "exceeding
 * several gigabytes" — and retrieval adds latency, which is why
 * Table 1 scores it High-memory / Heavy-prediction).
 *
 * We implement the real mechanism at simulation scale: normalized
 * embeddings, exact inner-product kNN, probability superposition
 * over neighbour exit layers. The cost model prices the database
 * scan at true dimensions and kRaeeDbEntries entries.
 */

#ifndef SPECEE_CORE_RAEE_HH
#define SPECEE_CORE_RAEE_HH

#include <vector>

#include "tensor/matrix.hh"

namespace specee::core {

/** RAEE database size at true scale (Table 1: several GB). */
inline constexpr double kRaeeDbEntries = 5.0e5;

/** Fraction of the RAEE database an ANN probe touches per token. */
inline constexpr double kRaeeScanFrac = 0.10;

/** Neighbours one RAEE probe retrieves. */
inline constexpr int kRaeeK = 8;

/** Retrieval index from probe embeddings to exit layers. */
class RaeeIndex
{
  public:
    /**
     * @param dim      embedding dimensionality (sim hidden)
     * @param n_layers decoder layers of the model
     */
    RaeeIndex(int dim, int n_layers);

    /** Add one (embedding, observed exit layer) entry. */
    void add(tensor::CSpan embedding, int exit_layer);

    int size() const { return static_cast<int>(exitLayers_.size()); }
    bool empty() const { return exitLayers_.empty(); }
    int dim() const { return dim_; }

    /**
     * Predict the exit layer for a query embedding: retrieve the k
     * nearest entries by cosine similarity and superpose their exit
     * layers weighted by similarity (the paper's probability
     * superposition). Returns n_layers-1 when the index is empty.
     */
    int predictExitLayer(tensor::CSpan query, int k = kRaeeK) const;

    /** Functional storage footprint (fp32 embeddings + labels). */
    size_t byteSize() const;

  private:
    int dim_;
    int nLayers_;
    std::vector<float> embeddings_; ///< row-major, unit-normalized
    std::vector<int> exitLayers_;
};

} // namespace specee::core

#endif // SPECEE_CORE_RAEE_HH
