// Shared helpers for the paper-reproduction benchmarks: single-app firmware
// boot, hardware-timer-style measurement (16-cycle precision, as in the
// paper's Section 4.2), and table rendering.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/aft/aft.h"
#include "src/apps/app_sources.h"
#include "src/common/strings.h"
#include "src/os/os.h"
#include "src/scope/json.h"

namespace amulet {

struct BenchRig {
  Machine machine;
  std::unique_ptr<AmuletOs> os;
};

// Builds + boots a single-app firmware under the log-only fault policy. Dies
// loudly on error (benchmarks are developer tools).
inline std::unique_ptr<BenchRig> BootApp(const AppSpec& app, const AftOptions& aft,
                                         int fram_wait_states) {
  auto fw = BuildFirmware({{app.name, app.source}}, aft);
  if (!fw.ok()) {
    std::fprintf(stderr, "BuildFirmware(%s, %s) failed: %s\n", app.name.c_str(),
                 std::string(MemoryModelName(aft.model)).c_str(), fw.status().ToString().c_str());
    std::exit(1);
  }
  auto rig = std::make_unique<BenchRig>();
  OsOptions options;
  options.fram_wait_states = fram_wait_states;
  options.fault_policy = FaultPolicy::kLogOnly;
  rig->os = std::make_unique<AmuletOs>(&rig->machine, std::move(*fw), options);
  Status status = rig->os->Boot();
  if (!status.ok()) {
    std::fprintf(stderr, "Boot failed: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  return rig;
}

// One timed handler dispatch, measured the way the paper measured (hardware
// timer before/after, 16-cycle precision).
inline uint64_t TimedButtonDispatch(BenchRig* rig, uint16_t button) {
  const uint64_t t0 = rig->machine.timer().now_cycles() >> 4;
  auto r = rig->os->Deliver(0, EventType::kButton, button);
  if (!r.ok() || r->faulted) {
    std::fprintf(stderr, "dispatch failed%s\n", r.ok() ? " (faulted)" : "");
    std::exit(1);
  }
  const uint64_t t1 = rig->machine.timer().now_cycles() >> 4;
  return (t1 - t0) << 4;
}

// Mean over `runs` timed dispatches (the paper: "each application was run
// 200 times").
inline double MeanButtonCycles(BenchRig* rig, uint16_t button, int runs) {
  uint64_t total = 0;
  for (int i = 0; i < runs; ++i) {
    total += TimedButtonDispatch(rig, button);
  }
  return static_cast<double>(total) / runs;
}

inline void PrintRule(int width = 86) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

// Machine-readable benchmark output: collects flat scalars plus an array of
// result rows and writes them as BENCH_<name>.json in the working directory,
// so result tracking does not have to scrape the human tables. Number
// rendering is locale-independent (snprintf %.17g round-trips doubles), and
// a non-finite number is written as null.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name)
      : name_(std::move(bench_name)), t0_(std::chrono::steady_clock::now()) {}

  // Restarts the wall clock. Benchmarks call this after their setup phase
  // (firmware builds, template boots) so wall_seconds measures only the
  // timed region; previously setup time was silently folded in.
  void ResetTimer() { t0_ = std::chrono::steady_clock::now(); }

  void Scalar(const std::string& key, double value) {
    scalars_.emplace_back(key, Number(value));
  }
  void Scalar(const std::string& key, const std::string& value) {
    scalars_.emplace_back(key, JsonQuoted(value));
  }

  // Starts a new row in "results"; Field() calls attach to the latest row.
  void Row() { rows_.emplace_back(); }
  void Field(const std::string& key, double value) {
    rows_.back().emplace_back(key, Number(value));
  }
  void Field(const std::string& key, uint64_t value) {
    rows_.back().emplace_back(key, StrFormat("%llu", static_cast<unsigned long long>(value)));
  }
  void Field(const std::string& key, const std::string& value) {
    rows_.back().emplace_back(key, JsonQuoted(value));
  }

  // The JSON document: the bench name, the scalars, then the result rows.
  std::string Render() const {
    std::string out = "{\n  \"bench\": " + JsonQuoted(name_);
    for (const auto& [key, value] : scalars_) {
      out += ",\n  " + JsonQuoted(key) + ": " + value;
    }
    out += ",\n  \"results\": [";
    for (size_t i = 0; i < rows_.size(); ++i) {
      out += i == 0 ? "\n    {" : ",\n    {";
      for (size_t f = 0; f < rows_[i].size(); ++f) {
        out += (f == 0 ? "" : ", ") + JsonQuoted(rows_[i][f].first) + ": " + rows_[i][f].second;
      }
      out += "}";
    }
    out += rows_.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
  }

  // Writes BENCH_<name>.json (adding wall_seconds since construction or the
  // last ResetTimer). Returns false and warns on I/O failure; benchmarks
  // keep their exit code.
  bool Write() {
    Scalar("wall_seconds",
           std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count());
    const std::string out = Render();
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  static std::string Number(double value) {
    return std::isfinite(value) ? StrFormat("%.17g", value) : "null";
  }

  std::string name_;
  std::chrono::steady_clock::time_point t0_;
  std::vector<std::pair<std::string, std::string>> scalars_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

}  // namespace amulet

#endif  // BENCH_BENCH_UTIL_H_
