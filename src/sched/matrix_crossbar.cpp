#include "sched/matrix_crossbar.hpp"

#include <cassert>

namespace ibarb::sched {

MatrixCrossbar::MatrixCrossbar(unsigned ports)
    : ports_(ports),
      beats_(static_cast<std::size_t>(ports) * ports, 0),
      rr_vl_(ports, 0),
      vl_of_(ports, 0) {
  assert(ports >= 1 && ports <= 64 && "requester masks are 64-bit");
  // Seed with the index order: i beats j iff i < j.
  for (unsigned o = 0; o < ports; ++o)
    for (unsigned i = 0; i < ports; ++i)
      for (unsigned j = i + 1; j < ports; ++j)
        row(o, i) |= std::uint64_t{1} << j;
}

}  // namespace ibarb::sched
