// Benchmark-side tracing and traced replicas of the simulator's run engines.
//
// The traced run drives the same work as the public entry points
// (RunFleet, RunCampaign, BuildFirmware) but makes every call into a layer's
// public functions itself, wrapped in a span: the AFT phases, template boot
// and snapshot, device clone and run, metric/ledger merges, checkpoint
// encode/write, executor tasks, and the OTA pack/decode/verify steps. Spans
// are kept in per-thread buffers and summarized (self time per layer) after
// the run; the untraced numbers come from the library's own entry points.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/aft/aft.h"
#include "src/common/status.h"
#include "src/fleet/campaign.h"
#include "src/fleet/fleet.h"

namespace perfbench {

int64_t NowNs();

enum class Layer : uint8_t {
  kAftParse,
  kAftSema,
  kAftLower,
  kAftChecks,
  kAftOpt,
  kAftCodegen,
  kAftAssemble,
  kAftBuild,  // the whole BuildFirmware call
  kBootTemplate,
  kBootSnapshot,
  kClone,
  kRun,
  kRecord,
  kMergeMetrics,
  kMergeLedger,
  kCheckpointEncode,
  kCheckpointWrite,
  kTask,  // one executor task (or one serial-loop device body)
  kOtaPack,
  kOtaDecode,
  kOtaVerify,
  kCount,
};

const char* LayerName(Layer layer);

// Process-wide span recorder. Each thread appends to its own buffer; the
// enclosing open span on the same thread is the parent.
class SpanLog {
 public:
  struct Span {
    Layer layer = Layer::kCount;
    int32_t device = -1;
    int32_t parent = -1;  // index in the same thread's buffer
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  class Scope {
   public:
    explicit Scope(Layer layer, int device = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    struct ThreadBuffer* buf_;
    size_t index_;
  };

  struct LayerTotals {
    int64_t self_ns = 0;
    int64_t count = 0;
    std::vector<int64_t> durations_ns;
  };

  static SpanLog& Get();

  // Summaries over every recorded span; call after all worker threads have
  // finished their spans.
  std::map<Layer, LayerTotals> Totals() const;
  // Sum of the durations of spans without a parent.
  int64_t TopLevelNs() const;
  // Chrome trace-event JSON (one "X" event per span).
  amulet::Status WriteChromeTrace(const std::string& path) const;

 private:
  friend class Scope;
  struct ThreadBuffer* BufferForThisThread();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<struct ThreadBuffer>> buffers_;  // guarded by mu_
};

// Totals of one run unit, from the untraced entry points or the traced
// replica; the traced run must reproduce every simulated field exactly.
struct UnitOutcome {
  double setup_s = 0;
  double run_s = 0;
  double wall_s = 0;
  int jobs = 0;
  uint64_t devices = 0;
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  uint64_t data_accesses = 0;
  uint64_t faults = 0;
  double sim_seconds = 0;  // simulated device-seconds
  uint64_t digest = 0;     // FNV-1a 64 of FleetDigest / CampaignDigest
  uint64_t ledger = 0;     // FNV-1a 64 of the fault ledger's DigestText
  double ref_s = 0;        // ReferenceSeconds() around this unit (untraced runs)
};

// Folds one unit into a running sum (digests are combined in order).
void Accumulate(const UnitOutcome& unit, UnitOutcome* into);

uint64_t Fnv(const std::string& text, uint64_t seed = 0xCBF29CE484222325ull);

UnitOutcome FleetOutcome(const amulet::FleetReport& report, double wall_s);
UnitOutcome CampaignOutcome(const amulet::CampaignReport& report, double wall_s);

// Counters the traced run gathers outside of span timing.
struct TraceTally {
  int images = 0;  // firmware images built (traced BuildFirmware calls)
  uint64_t check_insts = 0;
  uint64_t checks_elided = 0;
  bool replay_matches = true;  // replayed phase stats equal BuildFirmware's
  int templates = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t codecache_hits = 0;
  uint64_t codecache_misses = 0;
  uint64_t codecache_invalidations = 0;
  uint64_t syscalls = 0;
  uint64_t ledger_buckets = 0;
  int checkpoint_writes = 0;
  uint64_t checkpoint_bytes_last = 0;
  double parallel_wall_s = 0;  // wall of the device loops
  int threads = 0;
  uint64_t verify_cycles = 0;
  int verifies = 0;
};

// BuildFirmware with every AFT phase replayed under a span first; the
// returned firmware is the library's own BuildFirmware output.
amulet::Result<amulet::Firmware> TracedBuildFirmware(
    const std::vector<amulet::AppSource>& apps, const amulet::AftOptions& options,
    TraceTally* tally);

amulet::Result<UnitOutcome> TracedFleetUnit(const amulet::FleetConfig& config,
                                            TraceTally* tally);
amulet::Result<UnitOutcome> TracedCampaignUnit(const amulet::CampaignConfig& config,
                                               TraceTally* tally);

// Layer probes for layers a workload does not exercise on its own.
amulet::Status ProbeCheckpoint(const std::string& path, TraceTally* tally);
amulet::Status ProbeOta(const amulet::Firmware& firmware, TraceTally* tally);

// Bare Machine::Run on two simulator-core kernels: sim-MIPS of the
// dispatch-bound (alu_reg) and memory-bound (mem_sram) loops.
struct CoreKernels {
  double dispatch_mips = 0;
  double memory_mips = 0;
};
amulet::Result<CoreKernels> MeasureCoreKernels();

// Table 1 of the paper on the simulated design: exact per-operation cycles
// of a checked memory access and a context switch, FRAM wait states 0.
struct Table1Row {
  double mem_access = 0;
  double ctx_switch = 0;
};
amulet::Result<std::map<amulet::MemoryModel, Table1Row>> MeasureTable1();

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
