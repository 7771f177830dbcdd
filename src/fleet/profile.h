// Heterogeneous fleet populations: a seeded distribution of device cohorts
// — memory model, app mix, and activity/event-rate weights — keyed on the
// *global* device id, so "90% kMpu wearables, 10% kSoftwareOnly legacy,
// mixed apps" is one deterministic fleet run (docs/fleet.md, "Population
// profiles").
//
// Determinism contract: which cohort a device belongs to, and everything the
// cohort seeds (sensor stream, activity mode), is a pure function of
// (fleet_seed, global device id, profile). Re-partitioning the same fleet
// across a different shard count therefore assigns every device the same
// cohort and the same stream, which is what makes a sharded run's merged
// digest byte-identical to a single-host run.
#ifndef SRC_FLEET_PROFILE_H_
#define SRC_FLEET_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/aft/model.h"
#include "src/common/status.h"
#include "src/os/sensors.h"

namespace amulet {

// One device cohort. `weight` is its relative share of the population;
// `rest/walk/run_weight` shape the activity-mode draw (the event-rate
// profile: more walking/running means more accelerometer events per
// simulated second).
struct Cohort {
  std::string name;
  uint32_t weight = 1;
  MemoryModel model = MemoryModel::kMpu;
  std::vector<std::string> apps;  // empty = the full nine-app suite
  uint32_t rest_weight = 1;
  uint32_t walk_weight = 1;
  uint32_t run_weight = 1;
};

struct PopulationProfile {
  std::vector<Cohort> cohorts;

  bool empty() const { return cohorts.empty(); }
  uint64_t total_weight() const;
};

// Parses one cohort spec — the `--cohort` flag syntax and the per-line
// profile-file syntax:
//
//   NAME:WEIGHT:MODEL[:APPS[:ACTIVITY]]
//
// MODEL is none|fl|sw|mpu; APPS is `+`-separated suite app names (empty
// keeps the full suite); ACTIVITY is REST/WALK/RUN integer weights, e.g.
// `1/2/1` (default 1/1/1). Example:
//
//   wearables:90:mpu:pedometer+clock:1/2/1
Result<Cohort> ParseCohortSpec(const std::string& spec);

// Parses a MODEL word (none|fl|sw|mpu), as cohort specs and amuletc's
// --model spell it. Returns false, leaving *out untouched, for anything else.
bool ParseModelWord(const std::string& word, MemoryModel* out);

// Parses a profile file: one cohort spec per line, `#` comments and blank
// lines ignored. Validates the assembled profile (see ValidateProfile).
Result<PopulationProfile> ParsePopulationProfile(const std::string& text);

// Non-empty unique names, positive cohort weights, at least one non-zero
// activity weight per cohort, and at least one cohort.
Status ValidateProfile(const PopulationProfile& profile);

// Canonical single-line form of the profile: cohorts in declaration order,
// every field printed, `|`-separated. `firmware_hashes` (one per cohort, may
// be empty before firmware is built) folds each cohort's built image into
// the identity so a checkpoint cannot resume against a different build.
std::string ProfileCanonical(const PopulationProfile& profile,
                             const std::vector<uint64_t>& firmware_hashes = {});

// FNV-1a 64 over ProfileCanonical. Zero for an empty profile — the
// homogeneous-fleet marker in checkpoints.
uint64_t ProfileHash(const PopulationProfile& profile,
                     const std::vector<uint64_t>& firmware_hashes = {});

// Weighted cohort draw for a device: a pure function of (fleet_seed, global
// device id, profile weights). Returns the cohort index.
int CohortForDevice(const PopulationProfile& profile, uint32_t fleet_seed,
                    int device_id);

// Weighted activity-mode draw from the cohort's rest/walk/run weights; with
// the default 1/1/1 weights this is exactly the uniform ModeFor draw the
// homogeneous fleet path uses.
ActivityMode ActivityForDevice(const Cohort& cohort, uint32_t device_seed);

}  // namespace amulet

#endif  // SRC_FLEET_PROFILE_H_
