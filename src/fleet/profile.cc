#include "src/fleet/profile.h"

#include "src/common/strings.h"
#include "src/fleet/device.h"
#include "src/ota/image.h"

namespace amulet {

namespace {

// Distinct stream constant so the cohort draw is decorrelated from the
// device's sensor seed (both are splitmix64 mixes of (fleet_seed, id)).
constexpr uint64_t kCohortStream = 0xC0F0A57D15717A9Bull;

std::vector<std::string> SplitOn(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string part;
  for (char c : s) {
    if (c == sep) {
      parts.push_back(part);
      part.clear();
    } else {
      part += c;
    }
  }
  parts.push_back(part);
  return parts;
}

bool ParseWeight(const std::string& word, uint32_t* out) {
  if (word.empty()) {
    return false;
  }
  uint64_t value = 0;
  for (char c : word) {
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
    if (value > 1'000'000'000ull) {
      return false;
    }
  }
  *out = static_cast<uint32_t>(value);
  return true;
}

}  // namespace

bool ParseModelWord(const std::string& word, MemoryModel* out) {
  if (word == "none") {
    *out = MemoryModel::kNoIsolation;
  } else if (word == "fl") {
    *out = MemoryModel::kFeatureLimited;
  } else if (word == "sw") {
    *out = MemoryModel::kSoftwareOnly;
  } else if (word == "mpu") {
    *out = MemoryModel::kMpu;
  } else {
    return false;
  }
  return true;
}

uint64_t PopulationProfile::total_weight() const {
  uint64_t total = 0;
  for (const Cohort& cohort : cohorts) {
    total += cohort.weight;
  }
  return total;
}

Result<Cohort> ParseCohortSpec(const std::string& spec) {
  const std::vector<std::string> fields = SplitOn(spec, ':');
  if (fields.size() < 3 || fields.size() > 5) {
    return InvalidArgumentError(
        StrFormat("cohort spec '%s' must be NAME:WEIGHT:MODEL[:APPS[:ACTIVITY]]",
                  spec.c_str()));
  }
  Cohort cohort;
  cohort.name = fields[0];
  if (cohort.name.empty()) {
    return InvalidArgumentError(StrFormat("cohort spec '%s' has an empty name", spec.c_str()));
  }
  if (!ParseWeight(fields[1], &cohort.weight) || cohort.weight == 0) {
    return InvalidArgumentError(StrFormat(
        "cohort '%s': weight '%s' must be a positive integer", cohort.name.c_str(),
        fields[1].c_str()));
  }
  if (!ParseModelWord(fields[2], &cohort.model)) {
    return InvalidArgumentError(
        StrFormat("cohort '%s': unknown model '%s' (expected none|fl|sw|mpu)",
                  cohort.name.c_str(), fields[2].c_str()));
  }
  if (fields.size() >= 4 && !fields[3].empty()) {
    for (const std::string& app : SplitOn(fields[3], '+')) {
      if (app.empty()) {
        return InvalidArgumentError(StrFormat("cohort '%s': empty app name in '%s'",
                                              cohort.name.c_str(), fields[3].c_str()));
      }
      cohort.apps.push_back(app);
    }
  }
  if (fields.size() == 5 && !fields[4].empty()) {
    const std::vector<std::string> weights = SplitOn(fields[4], '/');
    if (weights.size() != 3 || !ParseWeight(weights[0], &cohort.rest_weight) ||
        !ParseWeight(weights[1], &cohort.walk_weight) ||
        !ParseWeight(weights[2], &cohort.run_weight)) {
      return InvalidArgumentError(StrFormat(
          "cohort '%s': activity weights '%s' must be REST/WALK/RUN integers (e.g. 1/2/1)",
          cohort.name.c_str(), fields[4].c_str()));
    }
    if (cohort.rest_weight + cohort.walk_weight + cohort.run_weight == 0) {
      return InvalidArgumentError(StrFormat(
          "cohort '%s': at least one activity weight must be non-zero", cohort.name.c_str()));
    }
  }
  return cohort;
}

Result<PopulationProfile> ParsePopulationProfile(const std::string& text) {
  PopulationProfile profile;
  int line_number = 0;
  for (const std::string& raw : SplitOn(text, '\n')) {
    ++line_number;
    std::string line = raw;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    // Trim surrounding whitespace (spec fields themselves never contain it).
    while (!line.empty() && (line.back() == ' ' || line.back() == '\t' || line.back() == '\r')) {
      line.pop_back();
    }
    size_t start = 0;
    while (start < line.size() && (line[start] == ' ' || line[start] == '\t')) {
      ++start;
    }
    line = line.substr(start);
    if (line.empty()) {
      continue;
    }
    Result<Cohort> cohort = ParseCohortSpec(line);
    if (!cohort.ok()) {
      return InvalidArgumentError(StrFormat("profile line %d: %s", line_number,
                                            cohort.status().message().c_str()));
    }
    profile.cohorts.push_back(*cohort);
  }
  RETURN_IF_ERROR(ValidateProfile(profile));
  return profile;
}

Status ValidateProfile(const PopulationProfile& profile) {
  if (profile.cohorts.empty()) {
    return InvalidArgumentError("population profile has no cohorts");
  }
  for (size_t i = 0; i < profile.cohorts.size(); ++i) {
    const Cohort& cohort = profile.cohorts[i];
    if (cohort.name.empty()) {
      return InvalidArgumentError("population profile has a cohort with no name");
    }
    if (cohort.weight == 0) {
      return InvalidArgumentError(
          StrFormat("cohort '%s' has zero weight", cohort.name.c_str()));
    }
    if (cohort.rest_weight + cohort.walk_weight + cohort.run_weight == 0) {
      return InvalidArgumentError(
          StrFormat("cohort '%s' has all-zero activity weights", cohort.name.c_str()));
    }
    for (size_t j = 0; j < i; ++j) {
      if (profile.cohorts[j].name == cohort.name) {
        return InvalidArgumentError(
            StrFormat("population profile names cohort '%s' twice", cohort.name.c_str()));
      }
    }
  }
  return OkStatus();
}

std::string ProfileCanonical(const PopulationProfile& profile,
                             const std::vector<uint64_t>& firmware_hashes) {
  std::string out;
  for (size_t i = 0; i < profile.cohorts.size(); ++i) {
    const Cohort& cohort = profile.cohorts[i];
    if (i > 0) {
      out += "|";
    }
    std::string apps;
    for (const std::string& app : cohort.apps) {
      if (!apps.empty()) {
        apps += "+";
      }
      apps += app;
    }
    out += StrFormat("%s:w=%u:model=%d:apps=%s:act=%u/%u/%u", cohort.name.c_str(),
                     cohort.weight, static_cast<int>(cohort.model), apps.c_str(),
                     cohort.rest_weight, cohort.walk_weight, cohort.run_weight);
    if (i < firmware_hashes.size()) {
      out += StrFormat(":fw=%016llx", static_cast<unsigned long long>(firmware_hashes[i]));
    }
  }
  return out;
}

uint64_t ProfileHash(const PopulationProfile& profile,
                     const std::vector<uint64_t>& firmware_hashes) {
  if (profile.empty()) {
    return 0;
  }
  const std::string canonical = ProfileCanonical(profile, firmware_hashes);
  return Fnv1a64(reinterpret_cast<const uint8_t*>(canonical.data()), canonical.size());
}

int CohortForDevice(const PopulationProfile& profile, uint32_t fleet_seed,
                    int device_id) {
  const uint64_t total = profile.total_weight();
  if (profile.cohorts.size() <= 1 || total == 0) {
    return 0;
  }
  const uint64_t mixed = fleet_internal::SplitMix64(
      ((static_cast<uint64_t>(fleet_seed) << 32) | static_cast<uint32_t>(device_id)) ^
      kCohortStream);
  uint64_t draw = mixed % total;
  for (size_t i = 0; i < profile.cohorts.size(); ++i) {
    if (draw < profile.cohorts[i].weight) {
      return static_cast<int>(i);
    }
    draw -= profile.cohorts[i].weight;
  }
  return static_cast<int>(profile.cohorts.size()) - 1;
}

ActivityMode ActivityForDevice(const Cohort& cohort, uint32_t device_seed) {
  const uint64_t total = static_cast<uint64_t>(cohort.rest_weight) + cohort.walk_weight +
                         cohort.run_weight;
  // With 1/1/1 weights this reduces to Mix32(seed) % 3 with rest/walk/run in
  // that order — bit-identical to the homogeneous ModeFor draw.
  const uint64_t draw = fleet_internal::Mix32(device_seed) % total;
  if (draw < cohort.rest_weight) {
    return ActivityMode::kRest;
  }
  if (draw < cohort.rest_weight + cohort.walk_weight) {
    return ActivityMode::kWalking;
  }
  return ActivityMode::kRunning;
}

}  // namespace amulet
