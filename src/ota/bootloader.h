// Simulated bootloader stage (docs/ota.md). Modeled on qm-bootloader's
// bl-data + dual-bank design: a small record at the top of InfoMem tracks
// which bank is active, how many boot attempts the pending image has burned,
// and the prior known-good firmware version, so a watchdog-reset storm after
// an update can roll the device back.
//
// The expensive part — verifying a pending image's MAC — runs as genuine
// MSP430 code on the simulated CPU (SimulateMacVerify), so its cost is
// measured in simulated cycles like everything else the paper measures.
// The host stages the image into an FRAM window chunk by chunk (standing in
// for the radio/DMA path, which the real bootloader also gets for free) and
// the simulated verifier absorbs every word; the host-side reference MAC
// (src/ota/mac.h) and the simulated one must agree bit-for-bit. A campaign
// (src/fleet/campaign.h) simulates the verification once per run and
// charges its cycles to every attempted device as `verify_cycles`; they are
// not part of a device's battery_impact_percent. bench_ota prints the
// verification's energy bill.
#ifndef SRC_OTA_BOOTLOADER_H_
#define SRC_OTA_BOOTLOADER_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/mcu/bus.h"
#include "src/ota/image.h"
#include "src/ota/mac.h"

namespace amulet {

// --- bl-data: the bootloader's persistent record in InfoMem ----------------

// 14 bytes at the top of InfoMem (0x19F0..0x19FE): u16 magic | u8 active
// bank | u8 attempt count | u16 rollback count | u32 current version | u32
// prior version. InfoMem is FRAM, so the record survives PUCs and resets.
inline constexpr uint16_t kBlDataAddr = 0x19F0;
inline constexpr uint16_t kBlDataMagic = 0xB007;

struct BlData {
  uint8_t active_bank = 0;    // 0 = bank A, 1 = bank B
  uint8_t attempt_count = 0;  // boot attempts burned by the pending image
  uint16_t rollback_count = 0;
  uint32_t current_version = 0;
  uint32_t prior_version = 0;  // last known-good version (rollback target)

  bool operator==(const BlData& other) const {
    return active_bank == other.active_bank && attempt_count == other.attempt_count &&
           rollback_count == other.rollback_count &&
           current_version == other.current_version && prior_version == other.prior_version;
  }
};

void WriteBlData(Bus* bus, const BlData& bl);
// NotFound when no record has ever been written (magic absent).
Result<BlData> ReadBlData(const Bus& bus);

// --- Simulated MAC verification --------------------------------------------

struct MacVerifyRun {
  bool accepted = false;
  uint64_t cycles = 0;  // simulated CPU cycles the verification cost
  uint64_t instructions = 0;
};

// Runs the bootloader's MAC check for `payload` against `expected` on a
// scratch simulated machine with the given FRAM wait states. The tag is
// recomputed word by word on the simulated CPU (inner pass, outer pass,
// constant-shape compare); `cycles` is the full simulated cost. `predecode`
// selects the scratch machine's execution path (cycle counts are identical
// either way; campaigns thread their --no-predecode choice through here).
Result<MacVerifyRun> SimulateMacVerify(const std::vector<uint8_t>& payload,
                                       const MacTag& expected, const OtaKey& key,
                                       int fram_wait_states, bool predecode = true);

// Convenience: verify a decoded OTA image (its payload against its header
// MAC).
Result<MacVerifyRun> SimulateImageVerify(const OtaImage& image, const OtaKey& key,
                                         int fram_wait_states, bool predecode = true);

}  // namespace amulet

#endif  // SRC_OTA_BOOTLOADER_H_
