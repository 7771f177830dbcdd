#include "src/mcu/machine.h"

#include "src/common/strings.h"
#include "src/scope/flight_recorder.h"
#include "src/scope/tracer.h"

namespace amulet {

Machine::Machine()
    : mpu_(&signals_),
      timer_(&signals_),
      hostio_(&signals_),
      watchdog_(&signals_),
      cpu_(&bus_, &timer_, &watchdog_, &signals_) {
  bus_.AttachDevice(&mpu_);
  bus_.AttachDevice(&timer_);
  bus_.AttachDevice(&hostio_);
  bus_.AttachDevice(&multiplier_);
  bus_.AttachDevice(&watchdog_);
  bus_.SetMpu(&mpu_);
}

void Machine::Reset() {
  mpu_.Reset();
  cpu_.Reset();
}

void Machine::AttachTracer(EventTracer* tracer) {
  if (tracer != nullptr) {
    tracer->set_clock([this] { return cpu_.cycle_count(); });
  }
  mpu_.set_tracer(tracer);
  hostio_.set_tracer(tracer);
  watchdog_.set_tracer(tracer);
}

void Machine::AttachProfiler(CycleProfiler* profiler) {
  cpu_.set_profiler(profiler);
}

void Machine::AttachFlightRecorder(FlightRecorder* recorder) {
  if (recorder != nullptr) {
    recorder->set_clock(cpu_.cycle_counter());
  }
  cpu_.set_flight_recorder(recorder);
  bus_.set_flight_recorder(recorder);
  mpu_.set_flight_recorder(recorder);
  hostio_.set_flight_recorder(recorder);
}

Cpu::RunOutcome Machine::Run(uint64_t max_cycles) {
  uint64_t spent = 0;
  while (spent < max_cycles) {
    Cpu::RunOutcome outcome = cpu_.Run(max_cycles - spent);
    spent += outcome.cycles;
    if (outcome.result == StepResult::kPuc) {
      ++puc_count_;
      Reset();
      continue;
    }
    outcome.cycles = spent;
    return outcome;
  }
  return {StepResult::kOk, spent, 0};
}

void Machine::SaveState(SnapshotWriter& w) const {
  w.BeginSection(SnapshotSection::kSignals);
  w.U8(signals_.nmi_pending ? 1 : 0);
  w.U8(signals_.puc_requested ? 1 : 0);
  w.U16(signals_.irq_pending);
  w.U8(signals_.stop_requested ? 1 : 0);
  w.U16(signals_.stop_code);
  w.EndSection();

  w.BeginSection(SnapshotSection::kBus);
  bus_.SaveState(w);
  w.EndSection();

  w.BeginSection(SnapshotSection::kMpu);
  mpu_.SaveState(w);
  w.EndSection();

  w.BeginSection(SnapshotSection::kTimer);
  timer_.SaveState(w);
  w.EndSection();

  w.BeginSection(SnapshotSection::kHostIo);
  hostio_.SaveState(w);
  w.EndSection();

  w.BeginSection(SnapshotSection::kMultiplier);
  multiplier_.SaveState(w);
  w.EndSection();

  w.BeginSection(SnapshotSection::kWatchdog);
  watchdog_.SaveState(w);
  w.EndSection();

  w.BeginSection(SnapshotSection::kCpu);
  cpu_.SaveState(w);
  w.EndSection();

  w.BeginSection(SnapshotSection::kMachine);
  w.U64(puc_count_);
  w.EndSection();
}

Status Machine::LoadState(SnapshotReader& r) {
  r.EnterSection(SnapshotSection::kSignals);
  signals_.nmi_pending = r.U8() != 0;
  signals_.puc_requested = r.U8() != 0;
  signals_.irq_pending = r.U16();
  signals_.stop_requested = r.U8() != 0;
  signals_.stop_code = r.U16();
  r.LeaveSection();

  r.EnterSection(SnapshotSection::kBus);
  bus_.LoadState(r);
  r.LeaveSection();

  r.EnterSection(SnapshotSection::kMpu);
  mpu_.LoadState(r);
  r.LeaveSection();

  r.EnterSection(SnapshotSection::kTimer);
  timer_.LoadState(r);
  r.LeaveSection();

  r.EnterSection(SnapshotSection::kHostIo);
  hostio_.LoadState(r);
  r.LeaveSection();

  r.EnterSection(SnapshotSection::kMultiplier);
  multiplier_.LoadState(r);
  r.LeaveSection();

  r.EnterSection(SnapshotSection::kWatchdog);
  watchdog_.LoadState(r);
  r.LeaveSection();

  r.EnterSection(SnapshotSection::kCpu);
  cpu_.LoadState(r);
  r.LeaveSection();

  r.EnterSection(SnapshotSection::kMachine);
  puc_count_ = r.U64();
  r.LeaveSection();
  return r.status();
}

MachineSnapshot CaptureSnapshot(const Machine& machine) {
  SnapshotWriter w;
  w.U32(kSnapshotMagic);
  w.U32(kSnapshotVersion);
  machine.SaveState(w);
  return MachineSnapshot{w.Take()};
}

Status RestoreSnapshot(const MachineSnapshot& snapshot, Machine* machine) {
  SnapshotReader r(snapshot.bytes);
  const uint32_t magic = r.U32();
  if (r.ok() && magic != kSnapshotMagic) {
    return InvalidArgumentError(
        StrFormat("not a machine snapshot (magic 0x%08x)", magic));
  }
  const uint32_t version = r.U32();
  if (r.ok() && version != kSnapshotVersion) {
    return InvalidArgumentError(StrFormat("unsupported snapshot version %u (supported: %u)",
                                          version, kSnapshotVersion));
  }
  RETURN_IF_ERROR(machine->LoadState(r));
  if (!r.AtEnd()) {
    return InvalidArgumentError("snapshot has trailing bytes");
  }
  return OkStatus();
}

}  // namespace amulet
