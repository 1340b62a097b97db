// mphls_perfbench: the repository benchmark driver.
//
//   mphls_perfbench --workload W --seed N --seconds S --trace 0|1
//                   [--tiny] [--out DIR]
//
// Runs one workload (synth_large, fuzz_standard, serve_mixed, dse_sweep)
// on inputs generated from the seed, checks every output, and prints one
// JSON object as the last line of stdout:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 they are the per-layer ones from a separate traced pass.
// The full report (host, configuration, input sizes, tails with their
// sample counts, failures) is written to DIR/result-W-N-traceT.json and
// echoed on the line before the result.
#include <sched.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "calibrate.h"
#include "workloads.h"

namespace perfbench {

const std::vector<MetricSpec>& endToEndMetrics() {
  static const std::vector<MetricSpec> k = {
      {"setup_s", "s"},
      {"throughput_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},
      {"cold_latency_p50_ms", "ms"},
      {"peak_rss_mb", "MB"},
      {"qor_area_geomean", "area"},
      {"qor_exec_ns_geomean", "ns"},
  };
  return k;
}

const std::vector<MetricSpec>& perLayerMetrics() {
  static const std::vector<MetricSpec> k = {
      // synth_large: self time per unit of each layer call
      {"lang.compile_s", "s"},
      {"opt.pipeline_s", "s"},
      {"opt.ops_after", "count"},
      {"sched.schedule_s", "s"},
      {"sched.steps", "count"},
      {"alloc.lifetimes_s", "s"},
      {"alloc.reg_s", "s"},
      {"alloc.fu_s", "s"},
      {"alloc.interconnect_s", "s"},
      {"alloc.compat_n_max", "count"},
      {"ctrl.build_s", "s"},
      {"ctrl.encode_s", "s"},
      {"ctrl.microcode_s", "s"},
      {"ctrl.states", "count"},
      {"estim.area_s", "s"},
      {"estim.timing_s", "s"},
      {"check.stage_s", "s"},
      {"check.timing_s", "s"},
      {"check.lint_s", "s"},
      {"sta.run_s", "s"},
      {"rtl.verilog_s", "s"},
      {"rtl.verilog_bytes", "bytes"},
      // fuzz_standard
      {"fuzz.gen_s", "s"},
      {"fuzz.run_source_s", "s"},
      {"fuzz.synth_share", "ratio"},
      {"fuzz.sta_share", "ratio"},
      {"fuzz.opt_share", "ratio"},
      {"fuzz.synth_runs_per_point", "count"},
      {"fuzz.sta_runs_per_point", "count"},
      {"vm.compiles_per_point", "count"},
      {"vm.rtl_runs_per_point", "count"},
      {"pool.busy_frac", "ratio"},
      // fuzz_standard, serve_mixed, dse_sweep
      {"frontend_cache.hit_ratio", "ratio"},
      {"frontend_cache.hits", "count"},
      {"frontend_cache.misses", "count"},
      // serve_mixed
      {"serve.synth.p50_ms", "ms"},
      {"serve.lint.p50_ms", "ms"},
      {"serve.sim.p50_ms", "ms"},
      {"serve.sta.p50_ms", "ms"},
      {"serve.synth.server_s", "s"},
      {"serve.lint.server_s", "s"},
      {"serve.sim.server_s", "s"},
      {"serve.sta.server_s", "s"},
      {"serve.wait_ms_mean", "ms"},
      {"serve.errors", "count"},
      {"serve.rejected_sessions", "count"},
      // dse_sweep
      {"dse.point_s_p50", "s"},
      {"dse.resource_sweep_s", "s"},
      {"dse.time_sweep_s", "s"},
      {"dse.chippe_s", "s"},
      {"dse.pool_busy_frac", "ratio"},
      {"dse.frontend_misses_per_sweep", "count"},
      {"dse.chippe_useful_ratio", "ratio"},
      // every workload
      {"trace.unattributed_frac", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  return k;
}

namespace {

int usableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mphls_perfbench: %s\nusage: mphls_perfbench --workload "
               "synth_large|fuzz_standard|serve_mixed|dse_sweep --seed N "
               "--seconds S --trace 0|1 [--tiny] [--out DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  cfg.outDir = ".bench_out";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") cfg.workload = value();
      else if (a == "--seed") cfg.seed = std::stoull(value());
      else if (a == "--seconds") cfg.seconds = std::stod(value());
      else if (a == "--trace") cfg.trace = value() != "0";
      else if (a == "--tiny") cfg.tiny = true;
      else if (a == "--out") cfg.outDir = value();
      else usage(("unknown argument " + a).c_str());
    } catch (const std::logic_error&) {  // stoull/stod on a non-number
      usage(("bad value for " + a).c_str());
    }
  }
  cfg.nproc = usableCpus();
  cfg.jobs = cfg.nproc;
  std::filesystem::create_directories(cfg.outDir);

  Outcome out;
  // synth_large keeps one thread busy; the other workloads keep nproc.
  Calibrator calibrator(cfg.workload == "synth_large" ? 1 : cfg.jobs);
  if (!cfg.tiny) cfg.calibrator = &calibrator;
  try {
    if (cfg.workload == "synth_large") out = runSynthLarge(cfg);
    else if (cfg.workload == "fuzz_standard") out = runFuzzStandard(cfg);
    else if (cfg.workload == "serve_mixed") out = runServeMixed(cfg);
    else if (cfg.workload == "dse_sweep") out = runDseSweep(cfg);
    else usage(("unknown workload " + cfg.workload).c_str());
  } catch (const std::exception& e) {
    // A workload that cannot finish prints no result.
    std::fprintf(stderr, "mphls_perfbench: %s failed: %s\n",
                 cfg.workload.c_str(), e.what());
    return 1;
  }
  out.set("peak_rss_mb", peakRssMb(), "MB");
  const double hostFactor = calibrator.factor();

  // Exactly the catalogue, in catalogue order. An end-to-end metric must
  // be measured and positive; a per-layer metric the workload does not
  // exercise reads 0.
  std::string metrics;
  for (const MetricSpec& spec :
       cfg.trace ? perLayerMetrics() : endToEndMetrics()) {
    double value = 0;
    bool found = false;
    for (const Metric& m : out.metrics)
      if (m.name == spec.name) {
        value = m.value;
        found = m.unit == spec.unit;
        // End-to-end timings are reported at the calibrated host speed.
        if (!cfg.trace && (m.unit == "s" || m.unit == "ms"))
          value /= hostFactor;
        if (!cfg.trace && m.unit == "1/s") value *= hostFactor;
        if (!found) out.fail(m.name + " reported in " + m.unit);
      }
    if (!cfg.trace && !(found && value > 0))
      out.fail(std::string("end-to-end metric missing or not positive: ") +
               spec.name);
    if (!metrics.empty()) metrics += ",";
    metrics += str(spec.name) + ":{\"value\":" + num(value) +
               ",\"unit\":" + str(spec.unit) + "}";
  }

  std::string report = "{\"workload\":" + str(cfg.workload) +
                       ",\"seed\":" + num((double)cfg.seed) +
                       ",\"seconds\":" + num(cfg.seconds) +
                       ",\"trace\":" + (cfg.trace ? "true" : "false") +
                       ",\"tiny\":" + (cfg.tiny ? "true" : "false") +
                       ",\"host\":{\"nproc\":" + num(cfg.nproc) +
                       ",\"jobs\":" + num(cfg.jobs) +
                       ",\"compiler\":" + str("g++ " __VERSION__) +
                       ",\"build_type\":" + str(PERFBENCH_BUILD_TYPE) +
                       "},\"host_factor\":" + num(hostFactor) +
                       ",\"calibration_samples\":" +
                       num((double)calibrator.samples());
  for (const auto& [k, v] : out.detail) report += "," + str(k) + ":" + v;
  std::string all;
  for (const Metric& m : out.metrics)
    all += (all.empty() ? "" : ",") + str(m.name) + ":" + num(m.value);
  report += ",\"raw_metrics\":{" + all + "},\"failures\":[";
  for (std::size_t i = 0; i < out.failures.size(); ++i)
    report += (i ? "," : "") + str(out.failures[i]);
  report += "]}";
  std::ofstream(cfg.outDir + "/result-" + cfg.workload + "-" +
                std::to_string(cfg.seed) + "-trace" +
                (cfg.trace ? "1" : "0") + ".json")
      << report << "\n";

  const long attempted = std::max(1L, out.attempted);
  std::cout << "{\"report\":" << report << "}\n"
            << "{\"correct\":" << (out.failed == 0 ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << out.failed
            << ",\"metrics\":{" << metrics << "}}" << std::endl;
  return 0;
}
