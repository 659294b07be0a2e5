#include "core/verifier.hh"

namespace specee::core {

VerifyResult
Verifier::verify(const model::LmHead &head, tensor::CSpan hidden,
                 int local_best)
{
    VerifyResult r;
    r.token = head.argmaxToken(hidden);
    r.verified = r.token == local_best;
    return r;
}

} // namespace specee::core
