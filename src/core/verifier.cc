#include "core/verifier.hh"

namespace specee::core {

bool
Verifier::verify(const model::LmHead &head, tensor::CSpan hidden,
                 int local_best)
{
    return head.isArgmax(hidden, local_best);
}

} // namespace specee::core
