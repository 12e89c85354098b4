// Fixture for tests/switch_test.py: sets two of the fixture's switches.
// Neither the comparison, the commented-out assignment nor the other
// struct's `enabled` below may count for vmmc.reliability.enabled.
#include "../params.h"

namespace fixture {

bool Ablate(Params& params, bool on) {
  params.vmmc.pipeline_dma = on;
  params.vmmc.regcache.enabled = !on;
  // params.vmmc.reliability.enabled = on;
  return params.vmmc.reliability.enabled == on;
}

}  // namespace fixture
