#include "src/os/os.h"

#include <algorithm>

#include "src/common/strings.h"
#include "src/mcu/mpu.h"
#include "src/scope/firmware_map.h"
#include "src/scope/probe.h"
#include "src/scope/tracer.h"

namespace amulet {

namespace {
// Forensic bounds: how far the call-stack scan walks and how much flight
// tail a record carries. Small on purpose — records are per-fault, and
// fleets with chronically faulting apps produce many of them.
constexpr uint32_t kStackScanWords = 64;
constexpr size_t kMaxCallStackFrames = 8;
constexpr size_t kFaultFlightTail = 32;
}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kUnknown:
      return "unknown";
    case FaultKind::kCheckIndex:
      return "check-index";
    case FaultKind::kCheckMemory:
      return "check-memory";
    case FaultKind::kCheckReturn:
      return "check-return";
    case FaultKind::kMpuViolation:
      return "mpu-violation";
    case FaultKind::kRunaway:
      return "runaway";
    case FaultKind::kCpuCrash:
      return "cpu-crash";
  }
  return "?";
}

FaultKind ClassifyFault(bool from_mpu, uint16_t code) {
  if (from_mpu) {
    return FaultKind::kMpuViolation;
  }
  switch (code) {
    case 1:
      return FaultKind::kCheckIndex;
    case 2:
      return FaultKind::kCheckMemory;
    case 3:
      return FaultKind::kCheckReturn;
    case 0xFFFF:
      return FaultKind::kRunaway;
    case 0xDEAD:
      return FaultKind::kCpuCrash;
    default:
      return FaultKind::kUnknown;
  }
}

std::string RenderFaultForensics(const FaultRecord& record, const Bus& bus) {
  std::string out = record.description + "\n";
  out += StrFormat("  kind %s, pc %s (%s), addr %s, cycle %llu\n",
                   FaultKindName(record.kind), HexWord(record.pc).c_str(),
                   RegionTagName(record.scope), HexWord(record.addr).c_str(),
                   static_cast<unsigned long long>(record.at_cycles));
  out += "  regs:";
  for (size_t i = 0; i < record.regs.size(); ++i) {
    out += StrFormat(" r%zu=%s", i, HexWord(record.regs[i]).c_str());
    if (i == 7) {
      out += "\n       ";
    }
  }
  out += "\n";
  if (!record.call_stack.empty()) {
    out += "  call stack (reconstructed):";
    for (uint16_t ra : record.call_stack) {
      out += StrFormat(" %s", HexWord(ra).c_str());
    }
    out += "\n";
  }
  if (!record.recent_pcs.empty()) {
    out += "  recent instructions:\n";
    out += RenderTrace(record.recent_pcs, bus);
  }
  if (!record.flight.empty()) {
    out += "  flight recorder tail:\n";
    for (const FlightEvent& event : record.flight) {
      out += RenderFlightEvent(event) + "\n";
    }
  }
  return out;
}

AmuletOs::AmuletOs(Machine* machine, Firmware firmware, OsOptions options)
    : AmuletOs(machine, std::make_shared<const Firmware>(std::move(firmware)), options) {}

AmuletOs::AmuletOs(Machine* machine, std::shared_ptr<const Firmware> firmware, OsOptions options)
    : machine_(machine),
      firmware_(std::move(firmware)),
      options_(options),
      sensors_(options.sensor_seed) {
  const size_t n = firmware_->apps.size();
  subs_.resize(n);
  stats_.resize(n);
  enabled_.assign(n, true);
  displays_.resize(n);
}

Status AmuletOs::Boot() {
  machine_->bus().set_fram_wait_states(options_.fram_wait_states);
  if (options_.trace_depth > 0) {
    trace_ = ExecutionTrace(static_cast<size_t>(options_.trace_depth));
    machine_->cpu().set_trace(&trace_);
  }
  LoadImage(firmware_->image, &machine_->bus());
  // Fault attribution support. The map is immutable per firmware and shared
  // with every BootFromSnapshot() clone; the code-range list filters the
  // call-stack scan (app data/stack chunks are not plausible return sites).
  region_map_ = std::make_shared<RegionMap>(BuildRegionMap(*firmware_));
  code_ranges_.clear();
  for (const auto& [base, bytes] : firmware_->image.chunks) {
    bool is_app_data = false;
    for (const AppImage& app : firmware_->apps) {
      if (base >= app.data_lo && base < app.data_hi) {
        is_app_data = true;
        break;
      }
    }
    if (!is_app_data && !bytes.empty()) {
      code_ranges_.emplace_back(base, static_cast<uint32_t>(base) + bytes.size());
    }
  }
  machine_->bus().PokeWord(kResetVector, firmware_->idle_addr);
  machine_->bus().PokeWord(kNmiVector, firmware_->nmi_handler);
  machine_->cpu().Reset();
  machine_->hostio().SetSyscallHandler(
      [this](const SyscallRequest& request) { return HandleSyscall(request); });
  booted_ = true;
  for (int i = 0; i < app_count(); ++i) {
    ASSIGN_OR_RETURN(DispatchResult r, Deliver(i, EventType::kInit));
    (void)r;
  }
  return OkStatus();
}

Status AmuletOs::BootFromSnapshot(const MachineSnapshot& snapshot, const AmuletOs& booted) {
  if (booted_) {
    return FailedPreconditionError("already booted");
  }
  if (!booted.booted_) {
    return FailedPreconditionError("template OS has not completed Boot()");
  }
  if (firmware_->apps.size() != booted.firmware_->apps.size()) {
    return InvalidArgumentError(
        StrFormat("firmware has %zu app(s) but template has %zu", firmware_->apps.size(),
                  booted.firmware_->apps.size()));
  }
  RETURN_IF_ERROR(RestoreSnapshot(snapshot, machine_));
  machine_->bus().set_fram_wait_states(options_.fram_wait_states);
  if (options_.trace_depth > 0) {
    trace_ = ExecutionTrace(static_cast<size_t>(options_.trace_depth));
    machine_->cpu().set_trace(&trace_);
  }
  machine_->hostio().SetSyscallHandler(
      [this](const SyscallRequest& request) { return HandleSyscall(request); });
  region_map_ = booted.region_map_;
  code_ranges_ = booted.code_ranges_;
  subs_ = booted.subs_;
  stats_ = booted.stats_;
  enabled_ = booted.enabled_;
  displays_ = booted.displays_;
  faults_ = booted.faults_;
  log_ = booted.log_;
  now_ms_ = booted.now_ms_;
  rng_state_ = booted.rng_state_;
  sensors_ = booted.sensors_;
  current_app_ = -1;
  booted_ = true;
  return OkStatus();
}

Result<AmuletOs::DispatchResult> AmuletOs::Deliver(int app_index, EventType type, uint16_t a0,
                                                   uint16_t a1, uint16_t a2) {
  if (!booted_) {
    return FailedPreconditionError("Boot() first");
  }
  if (app_index < 0 || app_index >= app_count()) {
    return OutOfRangeError(StrFormat("no app %d", app_index));
  }
  DispatchResult result;
  if (!enabled_[app_index]) {
    return result;
  }
  const AppImage& app = firmware_->apps[app_index];
  const uint16_t handler = app.handlers[static_cast<size_t>(type)];
  if (handler == 0) {
    return result;  // app does not handle this event
  }

  Cpu& cpu = machine_->cpu();
  machine_->ClearStop();
  cpu.set_reg(Reg::kR11, handler);
  cpu.set_reg(Reg::kR12, a0);
  cpu.set_reg(Reg::kR13, a1);
  cpu.set_reg(Reg::kR14, a2);
  cpu.set_reg(Reg::kSr, 0);
  cpu.set_reg(Reg::kPc, app.dispatch_addr);

  current_app_ = app_index;
  const uint64_t cycles_before = cpu.cycle_count();
  const uint64_t syscalls_before = machine_->hostio().syscall_count();
  AMULET_PROBE_SPAN_BEGIN(tracer_, "os.dispatch", static_cast<uint32_t>(app_index),
                          static_cast<uint32_t>(type));
  Cpu::RunOutcome outcome = machine_->Run(options_.handler_cycle_budget);
  AMULET_PROBE_SPAN_END(tracer_, "os.dispatch");
  current_app_ = -1;

  result.cycles = cpu.cycle_count() - cycles_before;
  result.syscalls = machine_->hostio().syscall_count() - syscalls_before;
  stats_[app_index].dispatches += 1;
  stats_[app_index].cycles += result.cycles;
  stats_[app_index].syscalls += result.syscalls;

  switch (outcome.result) {
    case StepResult::kStopped:
      if (outcome.stop_code == kStopHandlerDone) {
        return result;
      }
      if (outcome.stop_code == kStopSoftwareFault) {
        result.faulted = true;
        RETURN_IF_ERROR(HandleFault(app_index, /*from_mpu=*/false,
                                    machine_->hostio().fault_code(),
                                    machine_->hostio().fault_addr()));
        return result;
      }
      if (outcome.stop_code == kStopMpuFault) {
        result.faulted = true;
        Mpu& mpu = machine_->mpu();
        RETURN_IF_ERROR(HandleFault(app_index, /*from_mpu=*/true, mpu.violation_flags(),
                                    mpu.last_violation_addr()));
        mpu.WriteWord(kMpuCtl1, 0x000F);  // clear violation flags
        return result;
      }
      return InternalError(StrFormat("unexpected stop code %u", outcome.stop_code));
    case StepResult::kOk:
      // Cycle budget exhausted: runaway handler. Treat as a fault.
      result.faulted = true;
      RETURN_IF_ERROR(HandleFault(app_index, /*from_mpu=*/false, /*code=*/0xFFFF,
                                  cpu.pc()));
      return result;
    case StepResult::kHalted: {
      // The app crashed the CPU outright (wild jump into garbage, executing
      // corrupted code, ...). Without isolation this is exactly the failure
      // the paper motivates: the whole device dies and needs a reset.
      result.faulted = true;
      FaultRecord record;
      record.app_index = app_index;
      record.code = 0xDEAD;
      record.kind = FaultKind::kCpuCrash;
      record.addr = cpu.halt_pc();
      record.at_cycles = cpu.cycle_count();
      record.description = StrFormat(
          "app '%s': CRASHED THE CPU (halt reason %d at %s) — device reset",
          app.name.c_str(), static_cast<int>(cpu.halt_reason()),
          HexWord(cpu.halt_pc()).c_str());
      CaptureForensics(&record, cpu.halt_pc());
      faults_.push_back(record);
      stats_[app_index].faults += 1;
      machine_->Reset();
      machine_->ClearStop();
      if (options_.fault_policy == FaultPolicy::kDisableApp) {
        enabled_[app_index] = false;
      } else if (options_.fault_policy == FaultPolicy::kRestartApp) {
        RETURN_IF_ERROR(RestartApp(app_index));
      }
      return result;
    }
    case StepResult::kPuc:
      // PUC escaped Machine::Run (shouldn't happen: Run handles it).
      return InternalError("unhandled PUC");
  }
  return InternalError("unreachable");
}

Status AmuletOs::HandleFault(int app_index, bool from_mpu, uint16_t code, uint16_t addr) {
  AMULET_PROBE_INSTANT(tracer_, from_mpu ? "os.fault.mpu" : "os.fault.software",
                       static_cast<uint32_t>(code), static_cast<uint32_t>(addr));
  FaultRecord record;
  record.app_index = app_index;
  record.from_mpu = from_mpu;
  record.code = code;
  record.kind = ClassifyFault(from_mpu, code);
  record.addr = addr;
  record.at_cycles = machine_->cpu().cycle_count();
  if (from_mpu) {
    record.description =
        StrFormat("app '%s': MPU violation (flags 0x%x) at %s",
                  firmware_->apps[app_index].name.c_str(), code, HexWord(addr).c_str());
  } else if (code == 1) {
    record.description = StrFormat("app '%s': array index %u out of bounds",
                                   firmware_->apps[app_index].name.c_str(), addr);
  } else if (code == 2) {
    record.description =
        StrFormat("app '%s': pointer check failed for address %s",
                  firmware_->apps[app_index].name.c_str(), HexWord(addr).c_str());
  } else if (code == 3) {
    record.description =
        StrFormat("app '%s': corrupted return address %s",
                  firmware_->apps[app_index].name.c_str(), HexWord(addr).c_str());
  } else {
    record.description = StrFormat("app '%s': runaway handler stopped at %s",
                                   firmware_->apps[app_index].name.c_str(),
                                   HexWord(addr).c_str());
  }
  CaptureForensics(&record, /*pc_hint=*/0);
  faults_.push_back(record);
  stats_[app_index].faults += 1;

  switch (options_.fault_policy) {
    case FaultPolicy::kLogOnly:
      return OkStatus();
    case FaultPolicy::kDisableApp:
      enabled_[app_index] = false;
      return OkStatus();
    case FaultPolicy::kRestartApp:
      return RestartApp(app_index);
  }
  return OkStatus();
}

void AmuletOs::ReloadAppData(int app_index) {
  const AppImage& app = firmware_->apps[app_index];
  // The app's globals chunk was linked at stack_top; restore its bytes.
  for (const auto& [base, bytes] : firmware_->image.chunks) {
    if (base >= app.stack_top && base < app.data_hi) {
      for (size_t i = 0; i < bytes.size(); ++i) {
        machine_->bus().PokeByte(static_cast<uint16_t>(base + i), bytes[i]);
      }
    }
  }
}

Status AmuletOs::RestartApp(int app_index) {
  if (in_restart_) {
    // on_init itself faulted during a restart: give up on the app rather
    // than restart-looping forever.
    enabled_[app_index] = false;
    return OkStatus();
  }
  in_restart_ = true;
  Status status = RestartAppInner(app_index);
  in_restart_ = false;
  return status;
}

Status AmuletOs::RestartAppInner(int app_index) {
  ReloadAppData(app_index);
  if (firmware_->shadow_return_stack) {
    // A fault mid-function leaves the shadow stack unbalanced; restart from
    // an empty shadow (its pointer lives at the start of InfoMem).
    machine_->bus().PokeWord(kInfoMemStart, kInfoMemStart + 2);
  }
  subs_[app_index] = Subscriptions{};
  displays_[app_index].clear();
  stats_[app_index].restarts += 1;
  ASSIGN_OR_RETURN(DispatchResult r, Deliver(app_index, EventType::kInit));
  (void)r;
  return OkStatus();
}

uint16_t AmuletOs::HandleSyscall(const SyscallRequest& request) {
  const int app = current_app_;
  if (app < 0) {
    return 0;  // syscall outside a dispatch (standalone firmware): ignore
  }
  Subscriptions& sub = subs_[app];
  switch (static_cast<ApiId>(request.number)) {
    case ApiId::kNoop:
      return 1;
    case ApiId::kLogValue:
    case ApiId::kLogAppend:
      log_.push_back({app, request.args[0], static_cast<int16_t>(request.args[1]), now_ms_});
      return 0;
    case ApiId::kDisplayDigits:
      displays_[app][static_cast<int16_t>(request.args[0])] =
          static_cast<int16_t>(request.args[1]);
      return 0;
    case ApiId::kDisplayClear:
      displays_[app].clear();
      return 0;
    case ApiId::kTimerStart: {
      TimerState& timer = sub.timers[static_cast<int16_t>(request.args[0])];
      timer.active = true;
      timer.period_ms = std::max<uint32_t>(1, request.args[1]);
      timer.next_due_ms = now_ms_ + timer.period_ms;
      return 0;
    }
    case ApiId::kTimerStop:
      sub.timers.erase(static_cast<int16_t>(request.args[0]));
      return 0;
    case ApiId::kAccelSubscribe: {
      const uint32_t rate = std::clamp<uint32_t>(request.args[0], 1, 100);
      sub.accel = true;
      sub.accel_period_ms = 1000 / rate;
      sub.accel_next_ms = now_ms_ + sub.accel_period_ms;
      return 0;
    }
    case ApiId::kAccelUnsubscribe:
      sub.accel = false;
      return 0;
    case ApiId::kHrSubscribe:
      sub.heartrate = true;
      sub.hr_next_ms = now_ms_ + 1000;
      return 0;
    case ApiId::kHrUnsubscribe:
      sub.heartrate = false;
      return 0;
    case ApiId::kTempRead:
      return static_cast<uint16_t>(sensors_.TempCentiC(now_ms_));
    case ApiId::kBatteryRead:
      return static_cast<uint16_t>(sensors_.BatteryPercent(now_ms_));
    case ApiId::kLightRead:
      return static_cast<uint16_t>(sensors_.LightLux(now_ms_));
    case ApiId::kClockHour:
      return static_cast<uint16_t>((now_ms_ / 3600000) % 24);
    case ApiId::kClockMinute:
      return static_cast<uint16_t>((now_ms_ / 60000) % 60);
    case ApiId::kClockSecond:
      return static_cast<uint16_t>((now_ms_ / 1000) % 60);
    case ApiId::kHapticBuzz:
      return 0;
    case ApiId::kRand:
      rng_state_ = rng_state_ * 1103515245u + 12345u;
      return static_cast<uint16_t>((rng_state_ >> 16) & 0x7FFF);
    case ApiId::kButtonSubscribe:
      sub.button = true;
      return 0;
    case ApiId::kCount:
      break;
  }
  return 0;
}

Status AmuletOs::RunFor(uint64_t sim_ms) {
  const uint64_t end_ms = now_ms_ + sim_ms;
  while (true) {
    // Find the earliest pending event across all apps.
    uint64_t best_time = end_ms + 1;
    int best_app = -1;
    int best_kind = -1;  // 0 timer, 1 accel, 2 hr
    int best_timer_id = 0;
    for (int i = 0; i < app_count(); ++i) {
      if (!enabled_[i]) {
        continue;
      }
      for (auto& [timer_id, timer] : subs_[i].timers) {
        if (timer.active && timer.next_due_ms < best_time) {
          best_time = timer.next_due_ms;
          best_app = i;
          best_kind = 0;
          best_timer_id = timer_id;
        }
      }
      if (subs_[i].accel && subs_[i].accel_next_ms < best_time) {
        best_time = subs_[i].accel_next_ms;
        best_app = i;
        best_kind = 1;
      }
      if (subs_[i].heartrate && subs_[i].hr_next_ms < best_time) {
        best_time = subs_[i].hr_next_ms;
        best_app = i;
        best_kind = 2;
      }
    }
    if (best_app < 0 || best_time > end_ms) {
      break;
    }
    now_ms_ = best_time;
    if (best_kind == 0) {
      TimerState& timer = subs_[best_app].timers[best_timer_id];
      timer.next_due_ms = now_ms_ + timer.period_ms;
      ASSIGN_OR_RETURN(DispatchResult r,
                       Deliver(best_app, EventType::kTimer,
                               static_cast<uint16_t>(best_timer_id)));
      (void)r;
    } else if (best_kind == 1) {
      subs_[best_app].accel_next_ms = now_ms_ + subs_[best_app].accel_period_ms;
      subs_[best_app].accel_sample_index += 1;
      AccelSample sample = sensors_.Accel(now_ms_);
      AMULET_PROBE_INSTANT(tracer_, "sensor.accel", static_cast<uint32_t>(best_app),
                           static_cast<uint32_t>(now_ms_));
      ASSIGN_OR_RETURN(DispatchResult r,
                       Deliver(best_app, EventType::kAccel,
                               static_cast<uint16_t>(sample.x_mg),
                               static_cast<uint16_t>(sample.y_mg),
                               static_cast<uint16_t>(sample.z_mg)));
      (void)r;
    } else {
      subs_[best_app].hr_next_ms = now_ms_ + 1000;
      AMULET_PROBE_INSTANT(tracer_, "sensor.heartrate", static_cast<uint32_t>(best_app),
                           static_cast<uint32_t>(now_ms_));
      ASSIGN_OR_RETURN(DispatchResult r,
                       Deliver(best_app, EventType::kHeartRate,
                               static_cast<uint16_t>(sensors_.HeartRateBpm(now_ms_))));
      (void)r;
    }
  }
  now_ms_ = end_ms;
  return OkStatus();
}

Status AmuletOs::PressButton(int button_id) {
  for (int i = 0; i < app_count(); ++i) {
    if (enabled_[i] && subs_[i].button) {
      ASSIGN_OR_RETURN(DispatchResult r, Deliver(i, EventType::kButton,
                                                 static_cast<uint16_t>(button_id)));
      (void)r;
    }
  }
  return OkStatus();
}

void AmuletOs::AttachTracer(EventTracer* tracer) {
  tracer_ = tracer;
  machine_->AttachTracer(tracer);
}

void AmuletOs::AttachFlightRecorder(FlightRecorder* recorder) {
  flight_ = recorder;
  machine_->AttachFlightRecorder(recorder);
}

void AmuletOs::CaptureForensics(FaultRecord* record, uint16_t pc_hint) {
  const Cpu& cpu = machine_->cpu();
  for (int i = 0; i < kNumRegisters; ++i) {
    record->regs[static_cast<size_t>(i)] = cpu.reg(static_cast<Reg>(i));
  }
  if (options_.trace_depth > 0) {
    record->recent_pcs = trace_.Recent();
  }

  // Faulting PC: by the time the fault surfaces, the live PC sits in the
  // fault stub (software checks) or past the NMI veneer (MPU), so walk the
  // trace newest-to-oldest for the last instruction attributed to app code.
  // Fallbacks keep the field meaningful with tracing disabled.
  uint16_t pc = pc_hint;
  if (pc == 0) {
    pc = cpu.pc();
    if (region_map_ != nullptr) {
      uint16_t tagged = 0;
      bool have_tagged = false;
      bool have_app = false;
      for (auto it = record->recent_pcs.rbegin(); it != record->recent_pcs.rend(); ++it) {
        const RegionTag tag = region_map_->At(*it);
        if (tag == RegionTag::kApp) {
          pc = *it;
          have_app = true;
          break;
        }
        if (!have_tagged && tag != RegionTag::kOther) {
          tagged = *it;
          have_tagged = true;
        }
      }
      if (!have_app && have_tagged) {
        pc = tagged;
      }
    }
  }
  record->pc = pc;
  record->scope = region_map_ != nullptr ? region_map_->At(pc) : RegionTag::kOther;

  // Raw backtrace: even, nonzero stack words that point into linked code.
  const uint16_t sp = cpu.sp();
  for (uint32_t a = sp; a + 1 < 0x10000 && a < static_cast<uint32_t>(sp) + 2 * kStackScanWords &&
                        record->call_stack.size() < kMaxCallStackFrames;
       a += 2) {
    const uint16_t v = machine_->bus().PeekWord(static_cast<uint16_t>(a));
    if (v == 0 || (v & 1) != 0) {
      continue;
    }
    for (const auto& [lo, hi] : code_ranges_) {
      if (v >= lo && v < hi) {
        record->call_stack.push_back(v);
        break;
      }
    }
  }

  if (flight_ != nullptr) {
    record->flight = flight_->Tail(kFaultFlightTail);
  }
}

std::string AmuletOs::StatusReport() const {
  std::string out;
  out += StrFormat("AmuletOS [%s] t=%llums, %d app(s)\n",
                   std::string(MemoryModelName(firmware_->model)).c_str(),
                   static_cast<unsigned long long>(now_ms_), app_count());
  for (int i = 0; i < app_count(); ++i) {
    const AppImage& app = firmware_->apps[i];
    const AppStats& stat = stats_[i];
    out += StrFormat(
        "  %-14s %s code=[%s,%s) data=[%s,%s) stack=%dB%s | dispatches=%llu cycles=%llu "
        "syscalls=%llu faults=%llu\n",
        app.name.c_str(), enabled_[i] ? "on " : "OFF", HexWord(app.code_lo).c_str(),
        HexWord(app.code_hi).c_str(), HexWord(app.data_lo).c_str(),
        HexWord(app.data_hi).c_str(), app.stack_bytes,
        app.stack_statically_bounded ? "" : " (recursion: default)",
        static_cast<unsigned long long>(stat.dispatches),
        static_cast<unsigned long long>(stat.cycles),
        static_cast<unsigned long long>(stat.syscalls),
        static_cast<unsigned long long>(stat.faults));
    if (!displays_[i].empty()) {
      out += "    display:";
      for (const auto& [pos, value] : displays_[i]) {
        out += StrFormat(" [%d]=%d", pos, value);
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace amulet
