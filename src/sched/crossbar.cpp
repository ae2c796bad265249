#include "sched/crossbar.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

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

CrossbarImpl crossbar_impl_from_env() {
  const char* raw = std::getenv("IBARB_CROSSBAR");
  if (raw == nullptr || *raw == '\0') return CrossbarImpl::kWrr;
  if (const auto impl = parse_crossbar_impl(raw)) return *impl;
  throw std::invalid_argument(
      std::string("IBARB_CROSSBAR: unknown crossbar scheduler '") + raw +
      "' (expected " + std::string(kCrossbarImplNames) + ")");
}

}  // namespace ibarb::sched
