#include "src/arp/arp.h"

#include <algorithm>
#include <cmath>

#include "src/common/strings.h"
#include "src/os/os.h"

namespace amulet {

namespace {
constexpr double kSecondsPerWeek = 7 * 24 * 3600.0;
}  // namespace

Result<AppProfile> ProfileApp(const AppSpec& app, MemoryModel model, const ArpOptions& options) {
  AppProfile profile;
  profile.app_name = app.name;
  profile.model = model;

  AftOptions aft;
  aft.model = model;
  ASSIGN_OR_RETURN(Firmware fw, BuildFirmware({{app.name, app.source}}, aft));
  const AppImage& image = fw.apps[0];
  const uint16_t data_lo = image.data_lo;
  const uint16_t data_hi = image.data_hi;

  Machine machine;
  OsOptions os_options;
  os_options.fram_wait_states = options.fram_wait_states;
  os_options.fault_policy = FaultPolicy::kLogOnly;
  AmuletOs os(&machine, std::move(fw), os_options);

  // Count app-region data traffic per dispatch with the bus counter.
  machine.bus().SetCountedRegions({{data_lo, data_hi}});

  RETURN_IF_ERROR(os.Boot());
  os.sensors().set_mode(ActivityMode::kWalking);

  uint64_t t_ms = 0;
  for (size_t i = 0; i < static_cast<size_t>(EventType::kCount); ++i) {
    const EventType type = static_cast<EventType>(i);
    if (type == EventType::kInit) {
      continue;
    }
    if (app.event_rate_hz[i] <= 0) {
      continue;
    }
    HandlerProfile handler;
    for (int sample = 0; sample < options.samples_per_event; ++sample) {
      t_ms += 37;  // vary synthetic inputs
      const EventArgs args = EventArgsFor(type, /*timer_id=*/0, &os.sensors(), t_ms);
      const uint64_t accesses_before = machine.bus().counted_accesses();
      ASSIGN_OR_RETURN(AmuletOs::DispatchResult r,
                       os.Deliver(0, type, args.a0, args.a1, args.a2));
      const uint64_t data_accesses = machine.bus().counted_accesses() - accesses_before;
      if (r.faulted) {
        return InternalError(StrFormat("app '%s' faulted while profiling %s",
                                       app.name.c_str(), EventHandlerName(type)));
      }
      handler.mean_cycles += static_cast<double>(r.cycles);
      handler.mean_syscalls += static_cast<double>(r.syscalls);
      handler.mean_data_accesses += static_cast<double>(data_accesses);
      ++handler.samples;
    }
    if (handler.samples > 0) {
      handler.mean_cycles /= handler.samples;
      handler.mean_syscalls /= handler.samples;
      handler.mean_data_accesses /= handler.samples;
    }
    profile.handlers[type] = handler;
  }

  for (const auto& [type, handler] : profile.handlers) {
    const double rate = app.event_rate_hz[static_cast<size_t>(type)];
    profile.cycles_per_week += rate * kSecondsPerWeek * handler.mean_cycles;
    profile.syscalls_per_week += rate * kSecondsPerWeek * handler.mean_syscalls;
  }
  return profile;
}

OverheadResult ComputeOverhead(const AppProfile& baseline, const AppProfile& isolated,
                               const EnergyModel& energy) {
  OverheadResult result;
  result.app_name = isolated.app_name;
  result.model = isolated.model;
  result.overhead_cycles_per_week = isolated.cycles_per_week - baseline.cycles_per_week;
  if (result.overhead_cycles_per_week < 0) {
    result.overhead_cycles_per_week = 0;
  }
  result.battery_impact_percent = energy.BatteryImpactPercent(result.overhead_cycles_per_week);
  return result;
}

std::string RenderProfile(const AppProfile& profile) {
  std::string out = StrFormat("ARP profile: %s [%s]\n", profile.app_name.c_str(),
                              std::string(MemoryModelName(profile.model)).c_str());
  for (const auto& [type, handler] : profile.handlers) {
    out += StrFormat("  %-14s cycles=%9.1f data_accesses=%8.1f syscalls=%5.1f (n=%d)\n",
                     EventHandlerName(type), handler.mean_cycles, handler.mean_data_accesses,
                     handler.mean_syscalls, handler.samples);
  }
  out += StrFormat("  weekly: %.3f Gcycles, %.0f syscalls\n", profile.cycles_per_week / 1e9,
                   profile.syscalls_per_week);
  return out;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  const double clamped = std::min(std::max(p, 0.0), 100.0);
  // Nearest-rank: the smallest value with at least p% of the population at
  // or below it.
  size_t rank = static_cast<size_t>(std::ceil(clamped / 100.0 * sorted.size()));
  if (rank > 0) {
    --rank;
  }
  return sorted[std::min(rank, sorted.size() - 1)];
}

StatSummary Summarize(std::vector<double> values) {
  StatSummary s;
  if (values.empty()) {
    return s;
  }
  std::sort(values.begin(), values.end());
  s.count = static_cast<int>(values.size());
  s.min = values.front();
  s.max = values.back();
  s.p50 = Percentile(values, 50);
  s.p95 = Percentile(values, 95);
  s.p99 = Percentile(values, 99);
  double total = 0;
  for (double v : values) {
    total += v;
  }
  s.mean = total / static_cast<double>(values.size());
  return s;
}

std::string RenderOverheadTable(const std::vector<OverheadResult>& rows) {
  std::string out;
  out += StrFormat("%-16s %-16s %16s %16s\n", "Application", "Model", "Overhead (Gcyc/wk)",
                   "Battery impact %");
  for (const OverheadResult& row : rows) {
    out += StrFormat("%-16s %-16s %18.4f %16.4f\n", row.app_name.c_str(),
                     std::string(MemoryModelName(row.model)).c_str(),
                     row.overhead_cycles_per_week / 1e9, row.battery_impact_percent);
  }
  return out;
}

}  // namespace amulet
