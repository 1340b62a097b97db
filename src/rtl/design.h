// The complete register-transfer-level design: the output of high-level
// synthesis as the paper defines it (Section 1): "a data path, that is, a
// network of registers, functional units, multiplexers and buses, as well
// as hardware to control the data transfers in that network ... the
// specification of a finite state machine that drives the datapaths".
#pragma once

#include "alloc/fu_alloc.h"
#include "alloc/interconnect.h"
#include "alloc/lifetime.h"
#include "alloc/reg_alloc.h"
#include "ctrl/fsm.h"
#include "ir/cdfg.h"
#include "lib/library.h"
#include "sched/schedule.h"

namespace mphls {

struct RtlDesign {
  Function fn;  ///< the (optimized) behavioral source, kept for reference
  Schedule sched;
  LifetimeInfo lifetimes;
  RegAssignment regs;
  FuBinding binding;
  InterconnectResult ic;
  Controller ctrl;
  HwLibrary lib;
};

}  // namespace mphls
