// The application suite: the nine deployed Amulet applications evaluated in
// Figure 2 of the paper (BatteryMeter, Clock, FallDetection, HR, HR Log,
// Pedometer, Rest, Sun, Temperature), re-written in AmuletC against our OS
// API, plus the three Section-4.2 benchmark applications (Synthetic,
// ActivityDetection, Quicksort).
//
// All suite apps are pointer- and recursion-free so that every one of the
// four memory models (including FeatureLimited) can compile them — matching
// the paper, which ported the original AmuletC applications.
#ifndef SRC_APPS_APP_SOURCES_H_
#define SRC_APPS_APP_SOURCES_H_

#include <array>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/os/api.h"

namespace amulet {

struct AppSpec {
  std::string name;    // symbol-safe identifier
  std::string title;   // display name used in paper figures
  std::string source;  // AmuletC
  // Expected steady-state event rate per event type (events/second), from
  // the app's own subscriptions. ARP uses this for weekly extrapolation.
  std::array<double, static_cast<size_t>(EventType::kCount)> event_rate_hz{};
};

// The nine Figure-2 applications.
const std::vector<AppSpec>& AmuletAppSuite();

// Section 4.2 benchmark applications.
const AppSpec& SyntheticApp();       // Table 1: memory access / context switch loops
const AppSpec& ActivityApp();        // Figure 3: Activity Case 1 & Case 2 handlers
const AppSpec& QuicksortApp();       // Figure 3: quicksort, no context switches

// Recursive quicksort variant: legal under the full-featured models only —
// the paper: "In the event of recursion, the maximum stack size cannot be
// determined and the AFT cannot guarantee a large enough stack."
const AppSpec& QuicksortRecursiveApp();

// A deliberately buggy app: every timer tick writes through a wild pointer
// into OS memory, so under the isolating models each tick faults and forces
// an app restart. The OTA campaign tests ship it as a "bad firmware update"
// to provoke a watchdog-reset storm and exercise bootloader rollback.
// Requires pointer support (kSoftwareOnly/kMpu).
const AppSpec& CrasherApp();

// Looks an app up by name among the suite, the benchmark apps and the
// crasher: every app a fleet, a campaign or `amuletc ota-pack --apps` can
// install. NotFound for any other name.
Result<const AppSpec*> FindApp(const std::string& name);

}  // namespace amulet

#endif  // SRC_APPS_APP_SOURCES_H_
