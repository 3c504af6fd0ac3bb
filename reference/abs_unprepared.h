// Reference arm of ABS.Verify (apqa_reference): the §5.2 equations checked
// straight from their definition, with no prepared tables and no batching
// across signatures. Only tests and benches link this library.
#ifndef APQA_REFERENCE_ABS_UNPREPARED_H_
#define APQA_REFERENCE_ABS_UNPREPARED_H_

#include <cstdint>
#include <vector>

#include "abs/abs.h"

namespace apqa::abs {

// Builds every row base A·B^{u_i} on the fly and pairs everything through
// crypto::MultiPairing. `exact` checks the W-equation and each span-program
// column equation as its own pairing product — the only column-by-column
// check in the tree, and the differential oracle for Abs::Verify. The
// default folds them under fresh random weights into one product (the
// same-run bench baseline).
bool VerifyUnprepared(const VerifyKey& mvk,
                      const std::vector<std::uint8_t>& msg,
                      const Policy& predicate, const Signature& sig,
                      bool exact = false);

}  // namespace apqa::abs

#endif  // APQA_REFERENCE_ABS_UNPREPARED_H_
