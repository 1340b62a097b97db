// Compatibility alias: perfbench/src/oracle.cpp, which is frozen with the
// benchmark, names `vm::RtlSim`. RtlSimulator is the RTL simulation
// engine; nothing in src/ or tests/ includes this header.
#pragma once

#include "rtl/rtlsim.h"

namespace mphls::vm {
using RtlSim = RtlSimulator;
}  // namespace mphls::vm
