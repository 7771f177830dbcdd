// Host-side AmuletOS: event scheduler, system services, app lifecycle and
// fault handling. App *code* runs on the simulated MSP430 (so every cycle of
// isolation overhead is measured); service *semantics* execute here, behind
// the HOSTIO peripheral, standing in for the wearable's sensor/display
// hardware.
#ifndef SRC_OS_OS_H_
#define SRC_OS_OS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/aft/aft.h"
#include "src/common/status.h"
#include "src/mcu/machine.h"
#include "src/mcu/trace.h"
#include "src/os/api.h"
#include "src/os/sensors.h"
#include "src/scope/flight_recorder.h"
#include "src/scope/region_map.h"

namespace amulet {

class EventTracer;

enum class FaultPolicy : uint8_t {
  kLogOnly,     // record and keep delivering events
  kDisableApp,  // record, stop delivering events to the app
  kRestartApp,  // record, reset app globals, re-run on_init
};

struct OsOptions {
  int fram_wait_states = 1;
  FaultPolicy fault_policy = FaultPolicy::kRestartApp;
  uint32_t sensor_seed = 20180711;
};

// What kind of isolation event produced a FaultRecord. Stable values — the
// fleet FaultLedger persists them.
enum class FaultKind : uint8_t {
  kUnknown = 0,       // a software fault code no check stub writes
  kCheckIndex = 1,    // compiler-inserted array index check (code 1)
  kCheckMemory = 2,   // compiler-inserted address bound check (code 2)
  kCheckReturn = 3,   // return-address check / shadow stack (code 3)
  kMpuViolation = 4,  // hardware MPU violation NMI (code = violation flags)
  kRunaway = 5,       // handler cycle budget exhausted (code 0xFFFF)
  kCpuCrash = 6,      // CPU halted outright (code 0xDEAD)
  kCount,
};

const char* FaultKindName(FaultKind kind);

// Structured fault record (v2). Everything in it is derived from simulated
// state, so records are bit-identical across the fast/interpreter cores and
// across host thread counts. The preformatted trace string of v1 is gone;
// use RenderFaultForensics() for the human-readable crash dump.
struct FaultRecord {
  int app_index = -1;
  bool from_mpu = false;  // true: MPU violation NMI; false: software check
  uint16_t code = 0;      // software: 1=index 2=memory 3=return addr
  uint16_t addr = 0;      // offending address / index
  uint64_t at_cycles = 0;
  std::string description;

  FaultKind kind = FaultKind::kUnknown;
  // The app instruction nearest the fault: the newest execution-trace entry
  // attributed to app code (check sequences and fault stubs are skipped), or
  // the live PC when no trace is attached. (kind, pc, scope) is the fleet
  // crash-bucket signature.
  uint16_t pc = 0;
  RegionTag scope = RegionTag::kOther;  // region of `pc` via the RegionMap
  std::array<uint16_t, 16> regs{};      // full register file at fault time
  // Plausible return addresses found by scanning the stack upward from SP
  // (innermost first). Heuristic, like a debugger's raw backtrace.
  std::vector<uint16_t> call_stack;
  // Raw PCs of the last few retired instructions (oldest first).
  std::vector<uint16_t> recent_pcs;
  // Flight-recorder tail at fault time (oldest first); empty when no
  // recorder is attached or the build has AMULET_SCOPE=OFF.
  std::vector<FlightEvent> flight;
};

// Renders the crash dump: description, attribution, registers, disassembled
// recent instructions, reconstructed call stack, and the flight tail.
std::string RenderFaultForensics(const FaultRecord& record, const Bus& bus);

struct AppStats {
  uint64_t dispatches = 0;
  uint64_t cycles = 0;
  uint64_t syscalls = 0;
  uint64_t faults = 0;
  uint64_t restarts = 0;
};

struct LogEntry {
  int app_index;
  uint16_t tag;
  int16_t value;
  uint64_t at_ms;
};

// The arguments a handler of `type` receives at simulated time `t_ms`: the
// timer's id, or a reading from `sensors` (accelerometer x/y/z in milli-g,
// heart rate, temperature, light, battery). Every other event gets zeros.
struct EventArgs {
  uint16_t a0 = 0;
  uint16_t a1 = 0;
  uint16_t a2 = 0;
};
EventArgs EventArgsFor(EventType type, int timer_id, SensorSuite* sensors, uint64_t t_ms);

class AmuletOs {
 public:
  AmuletOs(Machine* machine, Firmware firmware, OsOptions options);
  // Runs over a firmware shared with other instances (a fleet cohort's
  // template and every device cloned from it). The firmware is immutable.
  AmuletOs(Machine* machine, std::shared_ptr<const Firmware> firmware, OsOptions options);

  // Loads the firmware image, installs vectors and the syscall handler, and
  // delivers on_init to every app.
  Status Boot();

  // Fast boot for fleet cloning: restores `snapshot` (captured from
  // `booted`'s machine after Boot() completed) into this OS's machine and
  // copies `booted`'s host-side state (HostState below: the per-app records,
  // faults, log, clock, RNG and sensor state), skipping the image load and
  // every on_init dispatch. Both instances must have been constructed from
  // the same firmware (the fleet shares one instance; see shared_firmware()).
  // The clone is indistinguishable from a fresh Boot() on this machine;
  // callers that want a distinct device identity reseed sensors() afterwards.
  Status BootFromSnapshot(const MachineSnapshot& snapshot, const AmuletOs& booted);

  struct DispatchResult {
    uint64_t cycles = 0;
    uint64_t syscalls = 0;
    bool faulted = false;
  };
  // Runs one event handler to completion on the simulated CPU.
  // No-op success (0 cycles) if the app does not define the handler.
  Result<DispatchResult> Deliver(int app_index, EventType type, uint16_t a0 = 0,
                                 uint16_t a1 = 0, uint16_t a2 = 0);

  // Advances simulated wall-clock time, delivering timer and sensor events
  // to subscribed apps in timestamp order. Events due in the same
  // millisecond go to the lower app index first; within one app, timers by
  // id (negative ids first), then the accelerometer, then heart rate.
  Status RunFor(uint64_t sim_ms);

  // Injects a button press (delivered to apps subscribed via
  // amulet_button_subscribe).
  Status PressButton(int button_id);

  // State inspection.
  const Firmware& firmware() const { return *firmware_; }
  const std::shared_ptr<const Firmware>& shared_firmware() const { return firmware_; }
  Machine& machine() { return *machine_; }
  SensorSuite& sensors() { return host_.sensors; }
  uint64_t now_ms() const { return host_.now_ms; }
  const std::vector<FaultRecord>& faults() const { return host_.faults; }
  const std::vector<LogEntry>& log() const { return host_.log; }
  const AppStats& stats(int app_index) const { return host_.apps[app_index].stats; }
  int app_count() const { return static_cast<int>(firmware_->apps.size()); }
  bool app_enabled(int app_index) const { return host_.apps[app_index].enabled; }
  // Display: per app, position -> value (what amulet_display_digits wrote).
  const std::map<int, int16_t>& display(int app_index) const {
    return host_.apps[app_index].display;
  }

  // Renders a small status report (per-app stats + display contents).
  std::string StatusReport() const;

  // Attaches an event tracer to the machine's probe points and to the OS's
  // own (dispatch spans, fault instants, sensor-event instants). Host wiring:
  // excluded from snapshots; survives Boot()/BootFromSnapshot() but must be
  // reattached by the owner after a machine restore it performs itself. Pass
  // nullptr to detach.
  void AttachTracer(EventTracer* tracer);

  // Attaches a flight recorder to the machine's probe points; fault records
  // then carry its tail. Same wiring rules as AttachTracer. Pass nullptr to
  // detach.
  void AttachFlightRecorder(FlightRecorder* recorder);

 private:
  // A periodic event an app subscribed to.
  struct Subscription {
    uint32_t period_ms = 0;
    uint64_t next_ms = 0;
  };
  // (event, timer id); the id is 0 for the accelerometer and heart rate.
  // Key order is the same-millisecond delivery order within one app.
  using SubscriptionKey = std::pair<EventType, int>;

  // One app's host-side state. A restart clears its subscriptions and its
  // display; its stats and its enabled bit survive.
  struct AppState {
    std::map<SubscriptionKey, Subscription> subscriptions;
    bool button = false;  // amulet_button_subscribe() was called
    std::map<int, int16_t> display;
    AppStats stats;
    bool enabled = true;
  };

  // Everything a BootFromSnapshot() clone inherits from its template, copied
  // in one assignment.
  struct HostState {
    std::vector<AppState> apps;
    std::vector<FaultRecord> faults;
    std::vector<LogEntry> log;
    uint64_t now_ms = 0;
    uint32_t rng_state = 0x1234;
    SensorSuite sensors;
    // Fault attribution, derived from the firmware in Boot(). The region map
    // is immutable and shared by pointer. The code ranges (app code and OS
    // text, app data/stack chunks excluded) filter the call-stack scan.
    std::shared_ptr<const RegionMap> region_map;
    std::vector<std::pair<uint16_t, uint32_t>> code_ranges;
  };

  // Host wiring a snapshot does not carry: FRAM wait states, the fault
  // trace and the syscall handler.
  void WireMachine();
  uint16_t HandleSyscall(const SyscallRequest& request);
  // The one fault path: records the fault with its forensics, emits its
  // tracer instant, counts it and applies the fault policy. A CPU crash also
  // resets the machine before the policy runs. `code` is the software check
  // code or the MPU's violation flags; the other kinds carry a fixed code.
  Status RecordFault(int app_index, FaultKind kind, uint16_t code, uint16_t addr);
  // Fills the v2 forensic fields (registers, faulting PC + scope, call
  // stack, trace tail, flight tail) from live machine state. `pc_hint` is
  // used instead of the trace walk when nonzero (CPU-crash records pin the
  // halt PC).
  void CaptureForensics(FaultRecord* record, uint16_t pc_hint);
  // Reloads the app's globals, clears its subscriptions and display, and
  // re-runs on_init; an app whose on_init faults during that is disabled.
  Status RestartApp(int app_index);
  // Reloads an app's globals from the original image (restart semantics).
  void ReloadAppData(int app_index);

  Machine* machine_;
  std::shared_ptr<const Firmware> firmware_;  // never null
  OsOptions options_;
  HostState host_;
  EventTracer* tracer_ = nullptr;
  FlightRecorder* flight_ = nullptr;
  int current_app_ = -1;
  bool booted_ = false;
  bool in_restart_ = false;
  ExecutionTrace trace_;  // recent PCs for fault records; WireMachine() resets it
};

}  // namespace amulet

#endif  // SRC_OS_OS_H_
