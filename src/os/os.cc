#include "src/os/os.h"

#include <algorithm>
#include <iterator>

#include "src/common/strings.h"
#include "src/mcu/mpu.h"
#include "src/scope/firmware_map.h"
#include "src/scope/probe.h"
#include "src/scope/tracer.h"

namespace amulet {

namespace {
// Cycles a handler may run before the OS stops it as a runaway.
constexpr uint64_t kHandlerCycleBudget = 20'000'000;
// Forensic bounds: how many retired instructions a record keeps, how far the
// call-stack scan walks and how much flight tail a record carries. Small on
// purpose — records are per-fault, and fleets with chronically faulting apps
// produce many of them.
constexpr size_t kTraceDepth = 16;
constexpr uint32_t kStackScanWords = 64;
constexpr size_t kMaxCallStackFrames = 8;
constexpr size_t kFaultFlightTail = 32;

// One definition per FaultKind, in enum order.
struct FaultKindDef {
  const char* name;  // FaultKindName()
  // The HOSTIO fault code that identifies the kind and that its records
  // carry; -1 where a record carries its source's code instead (the MPU's
  // violation flags, a code no check stub writes).
  int code;
  const char* instant;  // tracer instant emitted when the fault is recorded
  // The description after "app '<name>': ".
  std::string (*describe)(uint16_t code, uint16_t addr, HaltReason halt);
};

std::string RunawayAt(uint16_t /*code*/, uint16_t addr, HaltReason /*halt*/) {
  return "runaway handler stopped at " + HexWord(addr);
}

constexpr FaultKindDef kFaultKinds[] = {
    {"unknown", -1, "os.fault.software", RunawayAt},
    {"check-index", 1, "os.fault.software",
     [](uint16_t, uint16_t addr, HaltReason) {
       return StrFormat("array index %u out of bounds", static_cast<unsigned>(addr));
     }},
    {"check-memory", 2, "os.fault.software",
     [](uint16_t, uint16_t addr, HaltReason) {
       return "pointer check failed for address " + HexWord(addr);
     }},
    {"check-return", 3, "os.fault.software",
     [](uint16_t, uint16_t addr, HaltReason) {
       return "corrupted return address " + HexWord(addr);
     }},
    {"mpu-violation", -1, "os.fault.mpu",
     [](uint16_t code, uint16_t addr, HaltReason) {
       return StrFormat("MPU violation (flags 0x%x) at %s", static_cast<unsigned>(code),
                        HexWord(addr).c_str());
     }},
    {"runaway", 0xFFFF, "os.fault.software", RunawayAt},
    {"cpu-crash", 0xDEAD, "os.fault.crash",
     [](uint16_t, uint16_t addr, HaltReason halt) {
       return StrFormat("CRASHED THE CPU (halt reason %d at %s) — device reset",
                        static_cast<int>(halt), HexWord(addr).c_str());
     }},
};
static_assert(std::size(kFaultKinds) == static_cast<size_t>(FaultKind::kCount));

// The kind of a software fault stop, from the code its stub wrote to HOSTIO.
FaultKind SoftwareFaultKind(uint16_t code) {
  for (size_t k = 0; k < std::size(kFaultKinds); ++k) {
    if (kFaultKinds[k].code == code) {
      return static_cast<FaultKind>(k);
    }
  }
  return FaultKind::kUnknown;
}
}  // namespace

const char* FaultKindName(FaultKind kind) {
  const size_t k = static_cast<size_t>(kind);
  return k < std::size(kFaultKinds) ? kFaultKinds[k].name : "?";
}

EventArgs EventArgsFor(EventType type, int timer_id, SensorSuite* sensors, uint64_t t_ms) {
  EventArgs args;
  switch (type) {
    case EventType::kTimer:
      args.a0 = static_cast<uint16_t>(timer_id);
      break;
    case EventType::kAccel: {
      const AccelSample s = sensors->Accel(t_ms);
      args.a0 = static_cast<uint16_t>(s.x_mg);
      args.a1 = static_cast<uint16_t>(s.y_mg);
      args.a2 = static_cast<uint16_t>(s.z_mg);
      break;
    }
    case EventType::kHeartRate:
      args.a0 = static_cast<uint16_t>(sensors->HeartRateBpm(t_ms));
      break;
    case EventType::kTemp:
      args.a0 = static_cast<uint16_t>(sensors->TempCentiC(t_ms));
      break;
    case EventType::kLight:
      args.a0 = static_cast<uint16_t>(sensors->LightLux(t_ms));
      break;
    case EventType::kBattery:
      args.a0 = static_cast<uint16_t>(sensors->BatteryPercent(t_ms));
      break;
    default:
      break;
  }
  return args;
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
    : machine_(machine), firmware_(std::move(firmware)), options_(options) {
  host_.apps.resize(firmware_->apps.size());
  host_.sensors = SensorSuite(options.sensor_seed);
}

void AmuletOs::WireMachine() {
  machine_->bus().set_fram_wait_states(options_.fram_wait_states);
  trace_ = ExecutionTrace(kTraceDepth);
  machine_->cpu().set_trace(&trace_);
  machine_->hostio().SetSyscallHandler(
      [this](const SyscallRequest& request) { return HandleSyscall(request); });
}

Status AmuletOs::Boot() {
  WireMachine();
  LoadImage(firmware_->image, &machine_->bus());
  // Fault attribution support. The map is immutable per firmware and shared
  // with every BootFromSnapshot() clone; the code-range list filters the
  // call-stack scan (app data/stack chunks are not plausible return sites).
  host_.region_map = std::make_shared<RegionMap>(BuildRegionMap(*firmware_));
  host_.code_ranges.clear();
  for (const auto& [base, bytes] : firmware_->image.chunks) {
    bool is_app_data = false;
    for (const AppImage& app : firmware_->apps) {
      if (base >= app.data_lo && base < app.data_hi) {
        is_app_data = true;
        break;
      }
    }
    if (!is_app_data && !bytes.empty()) {
      host_.code_ranges.emplace_back(base, static_cast<uint32_t>(base) + bytes.size());
    }
  }
  machine_->bus().PokeWord(kResetVector, firmware_->idle_addr);
  machine_->bus().PokeWord(kNmiVector, firmware_->nmi_handler);
  machine_->cpu().Reset();
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
  WireMachine();
  host_ = booted.host_;
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
  AppState& state = host_.apps[app_index];
  if (!state.enabled) {
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
  Cpu::RunOutcome outcome = machine_->Run(kHandlerCycleBudget);
  AMULET_PROBE_SPAN_END(tracer_, "os.dispatch");
  current_app_ = -1;

  result.cycles = cpu.cycle_count() - cycles_before;
  result.syscalls = machine_->hostio().syscall_count() - syscalls_before;
  state.stats.dispatches += 1;
  state.stats.cycles += result.cycles;
  state.stats.syscalls += result.syscalls;

  FaultKind kind = FaultKind::kUnknown;
  uint16_t code = 0;
  uint16_t addr = 0;
  switch (outcome.result) {
    case StepResult::kStopped:
      if (outcome.stop_code == kStopHandlerDone) {
        return result;
      }
      if (outcome.stop_code == kStopSoftwareFault) {
        code = machine_->hostio().fault_code();
        addr = machine_->hostio().fault_addr();
        kind = SoftwareFaultKind(code);
      } else if (outcome.stop_code == kStopMpuFault) {
        kind = FaultKind::kMpuViolation;
        code = machine_->mpu().violation_flags();
        addr = machine_->mpu().last_violation_addr();
      } else {
        return InternalError(StrFormat("unexpected stop code %u", outcome.stop_code));
      }
      break;
    case StepResult::kOk:
      // Cycle budget exhausted: a runaway handler.
      kind = FaultKind::kRunaway;
      addr = cpu.pc();
      break;
    case StepResult::kHalted:
      // The app crashed the CPU outright (wild jump into garbage, executing
      // corrupted code, ...). Without isolation this is exactly the failure
      // the paper motivates: the whole device dies and needs a reset.
      kind = FaultKind::kCpuCrash;
      addr = cpu.halt_pc();
      break;
    case StepResult::kPuc:
      // PUC escaped Machine::Run (shouldn't happen: Run handles it).
      return InternalError("unhandled PUC");
  }
  result.faulted = true;
  RETURN_IF_ERROR(RecordFault(app_index, kind, code, addr));
  if (kind == FaultKind::kMpuViolation) {
    machine_->mpu().WriteWord(kMpuCtl1, 0x000F);  // clear violation flags
  }
  return result;
}

Status AmuletOs::RecordFault(int app_index, FaultKind kind, uint16_t code, uint16_t addr) {
  const FaultKindDef& def = kFaultKinds[static_cast<size_t>(kind)];
  if (def.code >= 0) {
    code = static_cast<uint16_t>(def.code);
  }
  AMULET_PROBE_INSTANT(tracer_, def.instant, static_cast<uint32_t>(code),
                       static_cast<uint32_t>(addr));
  const Cpu& cpu = machine_->cpu();
  FaultRecord record;
  record.app_index = app_index;
  record.from_mpu = kind == FaultKind::kMpuViolation;
  record.code = code;
  record.kind = kind;
  record.addr = addr;
  record.at_cycles = cpu.cycle_count();
  record.description = StrFormat("app '%s': ", firmware_->apps[app_index].name.c_str()) +
                       def.describe(code, addr, cpu.halt_reason());
  CaptureForensics(&record, kind == FaultKind::kCpuCrash ? addr : 0);
  host_.faults.push_back(std::move(record));
  AppState& app = host_.apps[app_index];
  app.stats.faults += 1;
  if (kind == FaultKind::kCpuCrash) {
    // The halted CPU is reset before the policy runs anything on it.
    machine_->Reset();
    machine_->ClearStop();
  }

  switch (options_.fault_policy) {
    case FaultPolicy::kLogOnly:
      return OkStatus();
    case FaultPolicy::kDisableApp:
      app.enabled = false;
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
  AppState& app = host_.apps[app_index];
  if (in_restart_) {
    // on_init itself faulted during a restart: give up on the app rather
    // than restart-looping forever.
    app.enabled = false;
    return OkStatus();
  }
  ReloadAppData(app_index);
  if (firmware_->shadow_return_stack) {
    // A fault mid-function leaves the shadow stack unbalanced; restart from
    // an empty shadow (its pointer lives at the start of InfoMem).
    machine_->bus().PokeWord(kInfoMemStart, kInfoMemStart + 2);
  }
  app.subscriptions.clear();
  app.button = false;
  app.display.clear();
  app.stats.restarts += 1;
  in_restart_ = true;
  const Status status = Deliver(app_index, EventType::kInit).status();
  in_restart_ = false;
  return status;
}

uint16_t AmuletOs::HandleSyscall(const SyscallRequest& request) {
  const int app = current_app_;
  if (app < 0) {
    return 0;  // syscall outside a dispatch (standalone firmware): ignore
  }
  AppState& state = host_.apps[app];
  const uint64_t now_ms = host_.now_ms;
  auto subscribe = [&](EventType type, int id, uint32_t period_ms) {
    state.subscriptions[{type, id}] = {period_ms, now_ms + period_ms};
  };
  switch (static_cast<ApiId>(request.number)) {
    case ApiId::kNoop:
      return 1;
    case ApiId::kLogValue:
    case ApiId::kLogAppend:
      host_.log.push_back({app, request.args[0], static_cast<int16_t>(request.args[1]), now_ms});
      return 0;
    case ApiId::kDisplayDigits:
      state.display[static_cast<int16_t>(request.args[0])] = static_cast<int16_t>(request.args[1]);
      return 0;
    case ApiId::kDisplayClear:
      state.display.clear();
      return 0;
    case ApiId::kTimerStart:
      subscribe(EventType::kTimer, static_cast<int16_t>(request.args[0]),
                std::max<uint32_t>(1, request.args[1]));
      return 0;
    case ApiId::kTimerStop:
      state.subscriptions.erase({EventType::kTimer, static_cast<int16_t>(request.args[0])});
      return 0;
    case ApiId::kAccelSubscribe:
      subscribe(EventType::kAccel, 0, 1000 / std::clamp<uint32_t>(request.args[0], 1, 100));
      return 0;
    case ApiId::kAccelUnsubscribe:
      state.subscriptions.erase({EventType::kAccel, 0});
      return 0;
    case ApiId::kHrSubscribe:
      subscribe(EventType::kHeartRate, 0, 1000);
      return 0;
    case ApiId::kHrUnsubscribe:
      state.subscriptions.erase({EventType::kHeartRate, 0});
      return 0;
    case ApiId::kTempRead:
      return static_cast<uint16_t>(host_.sensors.TempCentiC(now_ms));
    case ApiId::kBatteryRead:
      return static_cast<uint16_t>(host_.sensors.BatteryPercent(now_ms));
    case ApiId::kLightRead:
      return static_cast<uint16_t>(host_.sensors.LightLux(now_ms));
    case ApiId::kClockHour:
      return static_cast<uint16_t>((now_ms / 3600000) % 24);
    case ApiId::kClockMinute:
      return static_cast<uint16_t>((now_ms / 60000) % 60);
    case ApiId::kClockSecond:
      return static_cast<uint16_t>((now_ms / 1000) % 60);
    case ApiId::kHapticBuzz:
      return 0;
    case ApiId::kRand:
      host_.rng_state = host_.rng_state * 1103515245u + 12345u;
      return static_cast<uint16_t>((host_.rng_state >> 16) & 0x7FFF);
    case ApiId::kButtonSubscribe:
      state.button = true;
      return 0;
    case ApiId::kCount:
      break;
  }
  return 0;
}

Status AmuletOs::RunFor(uint64_t sim_ms) {
  const uint64_t end_ms = host_.now_ms + sim_ms;
  while (true) {
    // The earliest due subscription of an enabled app. The strict compare
    // keeps the first of equal times: the lowest app index, then key order.
    int best_app = -1;
    SubscriptionKey best_key;
    Subscription* best = nullptr;
    uint64_t best_ms = end_ms + 1;
    for (int i = 0; i < app_count(); ++i) {
      AppState& app = host_.apps[i];
      if (!app.enabled) {
        continue;
      }
      for (auto& [key, sub] : app.subscriptions) {
        if (sub.next_ms < best_ms) {
          best_ms = sub.next_ms;
          best_app = i;
          best_key = key;
          best = &sub;
        }
      }
    }
    if (best == nullptr) {
      break;
    }
    host_.now_ms = best_ms;
    best->next_ms = best_ms + best->period_ms;
    const auto [type, id] = best_key;
    const EventArgs args = EventArgsFor(type, id, &host_.sensors, best_ms);
    if (type != EventType::kTimer) {
      AMULET_PROBE_INSTANT(tracer_, type == EventType::kAccel ? "sensor.accel" : "sensor.heartrate",
                           static_cast<uint32_t>(best_app), static_cast<uint32_t>(best_ms));
    }
    ASSIGN_OR_RETURN(DispatchResult r, Deliver(best_app, type, args.a0, args.a1, args.a2));
    (void)r;
  }
  host_.now_ms = end_ms;
  return OkStatus();
}

Status AmuletOs::PressButton(int button_id) {
  for (int i = 0; i < app_count(); ++i) {
    if (host_.apps[i].enabled && host_.apps[i].button) {
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
  record->recent_pcs = trace_.Recent();

  // Faulting PC: by the time the fault surfaces, the live PC sits in the
  // fault stub (software checks) or past the NMI veneer (MPU), so walk the
  // trace newest-to-oldest for the last instruction attributed to app code.
  // Fallbacks keep the field meaningful with tracing disabled.
  uint16_t pc = pc_hint;
  if (pc == 0) {
    pc = cpu.pc();
    if (host_.region_map != nullptr) {
      uint16_t tagged = 0;
      bool have_tagged = false;
      bool have_app = false;
      for (auto it = record->recent_pcs.rbegin(); it != record->recent_pcs.rend(); ++it) {
        const RegionTag tag = host_.region_map->At(*it);
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
  record->scope = host_.region_map != nullptr ? host_.region_map->At(pc) : RegionTag::kOther;

  // Raw backtrace: even, nonzero stack words that point into linked code.
  const uint16_t sp = cpu.sp();
  for (uint32_t a = sp; a + 1 < 0x10000 && a < static_cast<uint32_t>(sp) + 2 * kStackScanWords &&
                        record->call_stack.size() < kMaxCallStackFrames;
       a += 2) {
    const uint16_t v = machine_->bus().PeekWord(static_cast<uint16_t>(a));
    if (v == 0 || (v & 1) != 0) {
      continue;
    }
    for (const auto& [lo, hi] : host_.code_ranges) {
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
                   static_cast<unsigned long long>(host_.now_ms), app_count());
  for (int i = 0; i < app_count(); ++i) {
    const AppImage& app = firmware_->apps[i];
    const AppState& state = host_.apps[i];
    const AppStats& stat = state.stats;
    out += StrFormat(
        "  %-14s %s code=[%s,%s) data=[%s,%s) stack=%dB%s | dispatches=%llu cycles=%llu "
        "syscalls=%llu faults=%llu\n",
        app.name.c_str(), state.enabled ? "on " : "OFF", HexWord(app.code_lo).c_str(),
        HexWord(app.code_hi).c_str(), HexWord(app.data_lo).c_str(),
        HexWord(app.data_hi).c_str(), app.stack_bytes,
        app.stack_statically_bounded ? "" : " (recursion: default)",
        static_cast<unsigned long long>(stat.dispatches),
        static_cast<unsigned long long>(stat.cycles),
        static_cast<unsigned long long>(stat.syscalls),
        static_cast<unsigned long long>(stat.faults));
    if (!state.display.empty()) {
      out += "    display:";
      for (const auto& [pos, value] : state.display) {
        out += StrFormat(" [%d]=%d", pos, value);
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace amulet
