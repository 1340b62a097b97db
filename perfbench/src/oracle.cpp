#include "oracle.h"

#include "ir/interp.h"
#include "lang/frontend.h"
#include "opt/pass.h"
#include "vm/sim_engine.h"

namespace perfbench {

Reference makeReference(const Design& d, std::uint64_t seed, int trials) {
  Reference ref;
  try {
    const mphls::Function fn = mphls::compileBdlOrThrow(d.source);
    const mphls::Interpreter interp(fn);
    for (int t = 0; t < trials; ++t) {
      Stimulus in = stimulus(d, seed, t);
      const mphls::ExecResult res = interp.run(in);
      if (!res.finished) {
        ref.error = d.name + ": reference run did not finish";
        return ref;
      }
      ref.inputs.push_back(std::move(in));
      ref.outputs.push_back(res.outputs);
    }
  } catch (const std::exception& e) {
    ref.error = d.name + ": " + e.what();
  }
  return ref;
}

std::string coSimulate(const mphls::SynthesisResult& r, const Reference& ref) {
  if (!ref.error.empty()) return ref.error;
  try {
    const mphls::vm::RtlSim sim(r.design);
    for (std::size_t t = 0; t < ref.inputs.size(); ++t) {
      const std::string msg = mphls::verifyAgainstBehavior(r, ref.inputs[t]);
      if (!msg.empty()) return "trial " + std::to_string(t) + ": " + msg;
      const mphls::RtlExecResult got = sim.run(ref.inputs[t]);
      if (!got.finished)
        return "trial " + std::to_string(t) + ": RTL did not halt";
      if (got.outputs != ref.outputs[t])
        return "trial " + std::to_string(t) +
               ": RTL outputs differ from the unoptimized reference";
    }
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

std::size_t opsAfterOpt(const std::string& source) {
  mphls::Function fn = mphls::compileBdlOrThrow(source);
  mphls::optimize(fn);
  return fn.numLiveOps();
}

}  // namespace perfbench
