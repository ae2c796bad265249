#include "sched/abr_crossbar.hpp"

#include <cassert>

namespace ibarb::sched {

AbrCrossbar::AbrCrossbar(unsigned ports)
    : ports_(ports),
      rr_vl_(ports, 0),
      served_(static_cast<std::size_t>(ports) * ports, 0),
      vl_of_(ports, 0) {
  assert(ports >= 1);
}

void AbrCrossbar::roll_epochs(iba::Cycle now) {
  const iba::Cycle epoch = now / kRateEpochCycles;
  iba::Cycle elapsed = epoch - epoch_;
  epoch_ = epoch;
  if (elapsed == 0) return;
  if (elapsed > 63) elapsed = 63;
  for (auto& s : served_) s >>= elapsed;
}

}  // namespace ibarb::sched
