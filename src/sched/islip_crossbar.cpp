#include "sched/islip_crossbar.hpp"

#include <cassert>

namespace ibarb::sched {

IslipCrossbar::IslipCrossbar(unsigned ports, unsigned iterations)
    : ports_(ports),
      k_(iterations == 0 ? ports : iterations),
      grant_ptr_(ports, 0),
      accept_ptr_(ports, 0),
      rr_vl_(ports, 0),
      req_(ports, 0),
      vl_for_(static_cast<std::size_t>(ports) * ports, 0),
      grant_to_(ports, -1),
      match_of_in_(ports, -1) {
  assert(ports >= 1 && ports <= 64 && "request masks are 64-bit");
}

}  // namespace ibarb::sched
