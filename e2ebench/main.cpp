/// \file main.cpp
/// khop_e2e — the repository benchmark's executable (run it through
/// e2ebench/run.py, which builds it first).
///
///   khop_e2e --workload NAME --seed N --seconds S --trace 0|1
///            [--scale full|tiny] [--corrupt 1] [--work-dir DIR]
///            [--trace-out FILE] [--git DESCRIBE]
///
/// --trace 0 runs one workload in closed loop for S seconds and prints its
/// end-to-end metrics. --trace 1 is the single traced run: one untraced and
/// one traced operation of every workload, printing every per-layer metric
/// (the workload name only has to be valid). Report lines come first; the
/// last line of standard output is the result object
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// The exit status is 0 only when every correctness gate passed.
#include <sched.h>

#include <charconv>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

using namespace e2e;

#ifndef KHOP_E2E_COMPILER
#define KHOP_E2E_COMPILER "unknown"
#endif
#ifndef KHOP_E2E_BUILD_TYPE
#define KHOP_E2E_BUILD_TYPE "unknown"
#endif

struct Workload {
  const char* name;
  Outcome (*run)(const Context&);
};

constexpr Workload kWorkloads[] = {
    {"static_scale", run_static_scale},
    {"paper_sweep", run_paper_sweep},
    {"protocol_sim", run_protocol_sim},
    {"churn_durable", run_churn_durable},
};

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "khop_e2e: " << msg << "\n"
            << "usage: khop_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scale full|tiny] [--corrupt 1] "
               "[--work-dir DIR] [--trace-out FILE] [--git DESCRIBE]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(arg + " requires a value");
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = val;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(val) != 0;
      } else if (arg == "--scale") {
        if (val != "full" && val != "tiny") usage("bad --scale " + val);
        opt.scale = val == "tiny" ? Scale::tiny() : Scale{};
      } else if (arg == "--corrupt") {
        opt.corrupt = std::stoi(val) != 0;
      } else if (arg == "--work-dir") {
        opt.work_dir = val;
      } else if (arg == "--trace-out") {
        opt.trace_out = val;
      } else if (arg == "--git") {
        opt.git = val;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + val);
    }
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

std::size_t cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Shortest round-trip decimal: every digit as measured.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string provenance_json(const Context& cx) {
  std::ostringstream os;
  os << "\"nproc\":" << cpus_available() << ",\"pool_threads\":"
     << cx.threads << ",\"compiler\":" << quoted(KHOP_E2E_COMPILER)
     << ",\"build_type\":" << quoted(KHOP_E2E_BUILD_TYPE)
     << ",\"khop_telemetry\":" << KHOP_TELEMETRY
     << ",\"git_describe\":" << quoted(cx.opt.git)
     << ",\"workload\":" << quoted(cx.opt.workload)
     << ",\"seed\":" << cx.opt.seed << ",\"seconds\":" << number(cx.opt.seconds)
     << ",\"trace\":" << (cx.opt.trace ? 1 : 0);
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Context cx;
  cx.opt = parse_args(argc, argv);
  cx.threads = cpus_available();

  const Workload* chosen = nullptr;
  for (const Workload& w : kWorkloads) {
    if (cx.opt.workload == w.name) chosen = &w;
  }
  if (chosen == nullptr) usage("unknown workload '" + cx.opt.workload + "'");
  std::filesystem::create_directories(cx.opt.work_dir);

  std::cout << "provenance {" << provenance_json(cx) << "}\n";
  if (cx.opt.trace) tracer().local();  // the main thread is tid 0

  Outcome total;
  for (const Workload& w : kWorkloads) {
    if (!cx.opt.trace && &w != chosen) continue;
    try {
      total.merge(w.run(cx));
    } catch (const std::exception& e) {
      total.fail(std::string(w.name) + ": exception: " + e.what());
    }
  }

  for (const std::string& line : total.report) std::cout << line << "\n";
  for (const std::string& err : total.errors) {
    std::cout << "GATE FAILED " << err << "\n";
  }
  if (!cx.opt.trace) {
    for (const Metric& m : total.named) {
      std::cout << "metric " << m.name << " " << number(m.value) << " "
                << m.unit << "\n";
    }
    std::cout << "metric ops " << total.attempted << " count\n"
              << "metric ops_failed " << total.failed << " count\n";
  }
  if (cx.opt.trace && !cx.opt.trace_out.empty()) {
    try {
      tracer().write_chrome_json(cx.opt.trace_out,
                                 "\"provenance\":{" + provenance_json(cx) + "}");
      std::cout << "trace " << cx.opt.trace_out << " spans="
                << tracer().num_spans() << "\n";
    } catch (const std::exception& e) {
      total.fail(std::string("trace export: ") + e.what());
    }
  }

  const std::vector<Metric>& metrics = cx.opt.trace ? total.layer : total.e2e;
  std::ostringstream os;
  os << "{\"correct\": " << (total.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << total.attempted
     << ", \"failed\": " << total.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << quoted(metrics[i].name) << ": {\"value\": "
       << number(metrics[i].value) << ", \"unit\": " << quoted(metrics[i].unit)
       << "}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return total.failed == 0 ? 0 : 1;
}
