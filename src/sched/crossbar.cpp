#include "sched/crossbar.hpp"

#include <stdexcept>

namespace ibarb::sched {

AnyCrossbar make_crossbar(CrossbarImpl impl, unsigned ports) {
  switch (impl) {
    case CrossbarImpl::kWrr:
      return WrrCrossbar(ports);
    case CrossbarImpl::kIslip:
      return IslipCrossbar(ports);
    case CrossbarImpl::kMatrix:
      return MatrixCrossbar(ports);
    case CrossbarImpl::kAbr:
      return AbrCrossbar(ports);
  }
  throw std::invalid_argument("make_crossbar: unknown CrossbarImpl");
}

}  // namespace ibarb::sched
