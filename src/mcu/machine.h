// Machine: one simulated MSP430FR5969 — CPU, bus, MPU, timer, and HOSTIO
// wired together. This is the object the OS, benchmarks, and examples hold.
#ifndef SRC_MCU_MACHINE_H_
#define SRC_MCU_MACHINE_H_

#include <cstdint>
#include <memory>

#include "src/mcu/bus.h"
#include "src/mcu/cpu.h"
#include "src/mcu/hostio.h"
#include "src/mcu/mpu.h"
#include "src/mcu/multiplier.h"
#include "src/mcu/signals.h"
#include "src/mcu/snapshot.h"
#include "src/mcu/timer.h"
#include "src/mcu/watchdog.h"

namespace amulet {

class CycleProfiler;
class EventTracer;
class FlightRecorder;

class Machine {
 public:
  Machine();

  // Non-copyable, non-movable: devices hold pointers into the machine.
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  Bus& bus() { return bus_; }
  Cpu& cpu() { return cpu_; }
  Mpu& mpu() { return mpu_; }
  Timer& timer() { return timer_; }
  HostIo& hostio() { return hostio_; }
  Multiplier& multiplier() { return multiplier_; }
  Watchdog& watchdog() { return watchdog_; }
  McuSignals& signals() { return signals_; }

  // PUC: resets CPU + MPU, keeps memory (FRAM is non-volatile).
  void Reset();

  // Number of PUCs that occurred since construction (MPU password abuse or
  // violation with VS=PUC). Run() handles them transparently.
  uint64_t puc_count() const { return puc_count_; }

  // Runs the CPU, transparently servicing PUC resets, until the firmware
  // stops, halts, or the cycle budget is exhausted.
  Cpu::RunOutcome Run(uint64_t max_cycles);

  // Acknowledges a STOP so execution can continue past it.
  void ClearStop() {
    signals_.stop_requested = false;
    signals_.stop_code = 0;
  }

  // Attaches an event tracer to every probe point in the machine (MPU
  // reprogramming spans, syscall spans, watchdog-expiry instants) and sets
  // its clock to this CPU's cycle counter. Host wiring: like the syscall
  // handler, tracers are not serialized and must be reattached after a
  // restore. Pass nullptr to detach.
  void AttachTracer(EventTracer* tracer);

  // Attaches a cycle-attribution profiler to the CPU step loop. Host wiring,
  // same snapshot rules as AttachTracer. Pass nullptr to detach.
  void AttachProfiler(CycleProfiler* profiler);

  // Attaches a flight recorder to every AMULET_PROBE_FLIGHT point (taken
  // branches and interrupt accepts in the CPU, stores on the bus, MPU
  // register writes, HOSTIO syscall/stop strobes) and sets its clock to this
  // CPU's cycle counter. Host wiring, same snapshot rules as AttachTracer.
  // Pass nullptr to detach.
  void AttachFlightRecorder(FlightRecorder* recorder);

  // Serializes the complete machine state (memory, CPU, peripherals,
  // signals) into `w`. Host-side wiring — the HOSTIO syscall handler, the
  // bus's counted regions, and execution trace — is not part of machine
  // state and must be reattached by the owner after a restore.
  void SaveState(SnapshotWriter& w) const;
  Status LoadState(SnapshotReader& r);

 private:
  McuSignals signals_;
  Bus bus_;
  Mpu mpu_;
  Timer timer_;
  HostIo hostio_;
  Multiplier multiplier_;
  Watchdog watchdog_;
  Cpu cpu_;
  uint64_t puc_count_ = 0;
};

// Captures the machine into a self-contained versioned buffer. The result is
// position-independent: it can be restored into any number of fresh Machine
// instances (fleet cloning) or the same machine later (checkpointing).
MachineSnapshot CaptureSnapshot(const Machine& machine);

// Restores a snapshot previously produced by CaptureSnapshot. On error (bad
// magic, version mismatch, truncation, trailing bytes) the machine may be
// partially overwritten and should be discarded.
Status RestoreSnapshot(const MachineSnapshot& snapshot, Machine* machine);

}  // namespace amulet

#endif  // SRC_MCU_MACHINE_H_
