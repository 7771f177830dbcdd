#include "src/apps/app_sources.h"

#include "src/common/strings.h"

namespace amulet {

namespace {

double* Rate(AppSpec* spec, EventType type) {
  return &spec->event_rate_hz[static_cast<size_t>(type)];
}

// ---------------------------------------------------------------------------
// The nine Figure-2 applications
// ---------------------------------------------------------------------------

AppSpec MakeBatteryMeter() {
  AppSpec spec;
  spec.name = "batterymeter";
  spec.title = "BatteryMeter";
  spec.source = R"(
int last_percent;
int low_warned;

void on_init(void) {
  last_percent = 100;
  low_warned = 0;
  amulet_timer_start(0, 60000);  /* check once a minute */
}

void on_timer(int timer_id) {
  int percent = amulet_battery_read();
  if (percent != last_percent) {
    last_percent = percent;
    amulet_display_digits(0, percent);
  }
  if (percent < 10 && !low_warned) {
    low_warned = 1;
    amulet_haptic_buzz(200);
    amulet_log_value(9, percent);
  }
  if (percent >= 10) {
    low_warned = 0;
  }
}
)";
  *Rate(&spec, EventType::kTimer) = 1.0 / 60.0;
  return spec;
}

AppSpec MakeClock() {
  AppSpec spec;
  spec.name = "clock";
  spec.title = "Clock";
  spec.source = R"(
int shown_minute;

void on_init(void) {
  shown_minute = -1;
  amulet_timer_start(0, 1000);
}

void on_timer(int timer_id) {
  int h = amulet_clock_hour();
  int m = amulet_clock_minute();
  int s = amulet_clock_second();
  amulet_display_digits(2, s);
  if (m != shown_minute) {
    shown_minute = m;
    amulet_display_digits(0, h);
    amulet_display_digits(1, m);
  }
}
)";
  *Rate(&spec, EventType::kTimer) = 1.0;
  return spec;
}

AppSpec MakeFallDetection() {
  AppSpec spec;
  spec.name = "falldetection";
  spec.title = "FallDetection";
  spec.source = R"(
enum { WINDOW = 32, FREEFALL_MG = 350, IMPACT_MG = 2600 };

int window[WINDOW];
int wpos;
int freefall_run;
int impact_watch;
int falls;

int iabs(int v) { return v < 0 ? -v : v; }

void on_init(void) {
  wpos = 0;
  freefall_run = 0;
  impact_watch = 0;
  falls = 0;
  amulet_accel_subscribe(32);
}

void on_accel(int x, int y, int z) {
  int mag = iabs(x) + iabs(y) + iabs(z);
  window[wpos % WINDOW] = mag;
  wpos++;

  if (mag < FREEFALL_MG) {
    freefall_run++;
  } else {
    if (freefall_run >= 3) {
      impact_watch = 20;  /* free-fall seen: watch for the impact */
    }
    freefall_run = 0;
  }
  if (impact_watch > 0) {
    impact_watch--;
    if (mag > IMPACT_MG) {
      /* confirm against recent window energy */
      int sum = 0;
      for (int i = 0; i < WINDOW; i++) {
        sum += window[i] / WINDOW;
      }
      falls++;
      impact_watch = 0;
      amulet_log_value(1, falls);
      amulet_log_value(2, sum);
      amulet_haptic_buzz(500);
      amulet_display_digits(0, falls);
    }
  }
}
)";
  *Rate(&spec, EventType::kAccel) = 32.0;
  return spec;
}

AppSpec MakeHr() {
  AppSpec spec;
  spec.name = "hr";
  spec.title = "HR";
  spec.source = R"(
int ema4;   /* smoothed bpm * 4 */
int bpm_min;
int bpm_max;

void on_init(void) {
  ema4 = 0;
  bpm_min = 999;
  bpm_max = 0;
  amulet_hr_subscribe();
}

void on_heartrate(int bpm) {
  if (ema4 == 0) {
    ema4 = bpm * 4;
  } else {
    ema4 = ema4 + bpm - ema4 / 4;
  }
  if (bpm < bpm_min) { bpm_min = bpm; }
  if (bpm > bpm_max) { bpm_max = bpm; }
  amulet_display_digits(0, ema4 / 4);
}
)";
  *Rate(&spec, EventType::kHeartRate) = 1.0;
  return spec;
}

AppSpec MakeHrLog() {
  AppSpec spec;
  spec.name = "hrlog";
  spec.title = "HR Log";
  spec.source = R"(
enum { HISTORY = 12 };

int sum;
int count;
int history[HISTORY];
int hpos;

void on_init(void) {
  sum = 0;
  count = 0;
  hpos = 0;
  amulet_hr_subscribe();
  amulet_timer_start(0, 60000);  /* one-minute epochs */
}

void on_heartrate(int bpm) {
  sum += bpm;
  count++;
}

void on_timer(int timer_id) {
  if (count == 0) {
    return;
  }
  int avg = sum / count;
  history[hpos % HISTORY] = avg;
  hpos++;
  amulet_log_append(0, avg);
  amulet_display_digits(0, avg);
  sum = 0;
  count = 0;
}
)";
  *Rate(&spec, EventType::kHeartRate) = 1.0;
  *Rate(&spec, EventType::kTimer) = 1.0 / 60.0;
  return spec;
}

AppSpec MakePedometer() {
  AppSpec spec;
  spec.name = "pedometer";
  spec.title = "Pedometer";
  spec.source = R"(
enum { HIST = 20, STEP_DELTA = 150, REFRACTORY = 5 };

int hist[HIST];
int hpos;
int avg;      /* running mean of |a| */
int steps;
int above;    /* currently above threshold */
int cooldown;

int iabs(int v) { return v < 0 ? -v : v; }

void on_init(void) {
  hpos = 0;
  avg = 1000;
  steps = 0;
  above = 0;
  cooldown = 0;
  amulet_accel_subscribe(20);
}

void on_accel(int x, int y, int z) {
  int mag = iabs(x) + iabs(y) + iabs(z);
  hist[hpos % HIST] = mag;
  hpos++;
  avg += (mag - avg) / 8;

  if (cooldown > 0) {
    cooldown--;
  }
  if (mag > avg + STEP_DELTA) {
    if (!above && cooldown == 0) {
      steps++;
      cooldown = REFRACTORY;
    }
    above = 1;
  } else {
    above = 0;
  }
  if ((hpos & 31) == 0) {
    amulet_display_digits(0, steps);
  }
}
)";
  *Rate(&spec, EventType::kAccel) = 20.0;
  return spec;
}

AppSpec MakeRest() {
  AppSpec spec;
  spec.name = "rest";
  spec.title = "Rest";
  spec.source = R"(
enum { MINUTES = 60, REST_THRESHOLD = 3000 };

int minute_class[MINUTES];
int minute_pos;
int activity_acc;
int px; int py; int pz;
int rest_minutes;

int iabs(int v) { return v < 0 ? -v : v; }

void on_init(void) {
  minute_pos = 0;
  activity_acc = 0;
  px = 0; py = 0; pz = 1000;
  rest_minutes = 0;
  amulet_accel_subscribe(4);
  amulet_timer_start(0, 60000);
}

void on_accel(int x, int y, int z) {
  int delta = iabs(x - px) + iabs(y - py) + iabs(z - pz);
  if (activity_acc < 30000) {
    activity_acc += delta / 4;
  }
  px = x; py = y; pz = z;
}

void on_timer(int timer_id) {
  int resting = activity_acc < REST_THRESHOLD;
  minute_class[minute_pos % MINUTES] = resting;
  minute_pos++;
  if (resting) {
    rest_minutes++;
  }
  activity_acc = 0;
  amulet_display_digits(0, rest_minutes);
}
)";
  *Rate(&spec, EventType::kAccel) = 4.0;
  *Rate(&spec, EventType::kTimer) = 1.0 / 60.0;
  return spec;
}

AppSpec MakeSun() {
  AppSpec spec;
  spec.name = "sun";
  spec.title = "Sun";
  spec.source = R"(
enum { BRIGHT_LUX = 5000, SAMPLE_S = 30 };

long sun_seconds;  /* a sunny week exceeds 32767 seconds: must be long */
int samples;

void on_init(void) {
  sun_seconds = 0;
  samples = 0;
  amulet_timer_start(0, 30000);
}

void on_timer(int timer_id) {
  int lux = amulet_light_read();
  samples++;
  if (lux > BRIGHT_LUX) {
    sun_seconds += SAMPLE_S;
    amulet_display_digits(0, (int)(sun_seconds / 60));
  }
  if ((samples % 120) == 0) {
    amulet_log_append(3, (int)(sun_seconds / 60));
  }
}
)";
  *Rate(&spec, EventType::kTimer) = 1.0 / 30.0;
  return spec;
}

AppSpec MakeTemperature() {
  AppSpec spec;
  spec.name = "temperature";
  spec.title = "Temperature";
  spec.source = R"(
enum { RING = 16 };

int ring[RING];
int rpos;
int filled;

void on_init(void) {
  rpos = 0;
  filled = 0;
  amulet_timer_start(0, 10000);
}

void on_timer(int timer_id) {
  int t = amulet_temp_read();
  ring[rpos % RING] = t;
  rpos++;
  if (filled < RING) {
    filled++;
  }
  /* accumulate pre-divided terms: a raw sum of 16 centi-degree readings
     (~3300 each) would overflow 16-bit int */
  int sum = 0;
  for (int i = 0; i < filled; i++) {
    sum += ring[i] / filled;
  }
  amulet_display_digits(0, sum / 100);
}
)";
  *Rate(&spec, EventType::kTimer) = 1.0 / 10.0;
  return spec;
}

// ---------------------------------------------------------------------------
// Section 4.2 benchmark applications
// ---------------------------------------------------------------------------

AppSpec MakeSynthetic() {
  AppSpec spec;
  spec.name = "synthetic";
  spec.title = "Synthetic";
  // Button 0: bare loop (baseline); button 1: one checked memory access per
  // iteration; button 2: one OS API call (context switch) per iteration.
  spec.source = R"(
enum { N = 512 };
int sink[64];

void on_init(void) {
  amulet_button_subscribe();
}

void on_button(int id) {
  if (id == 0) {
    for (int i = 0; i < N; i++) {
      sink[0] = i;           /* constant index: statically safe, no check */
    }
  }
  if (id == 1) {
    for (int i = 0; i < N; i++) {
      sink[i & 63] = i;      /* dynamic index: checked memory access */
    }
  }
  if (id == 2) {
    for (int i = 0; i < N; i++) {
      amulet_noop();         /* pure context switch */
    }
  }
}
)";
  return spec;
}

AppSpec MakeActivity() {
  AppSpec spec;
  spec.name = "activity";
  spec.title = "ActivityDetection";
  // Case 1 (button 1): windowed statistical features (mean, mean absolute
  // deviation, zero crossings, min/max) — many memory accesses, no API calls
  // in the hot loops. Case 2 (button 2): lag correlation + moving-average
  // filter — heavier still.
  spec.source = R"(
enum { WIN = 64, CORR = 48, LAGS = 8 };

int win[WIN];
int wpos;
int buf_a[CORR];
int buf_b[CORR];
int filtered[CORR];
int result_case1;
int result_case2;

int iabs(int v) { return v < 0 ? -v : v; }

void on_init(void) {
  amulet_button_subscribe();
  amulet_accel_subscribe(16);
}

void on_accel(int x, int y, int z) {
  int mag = iabs(x) + iabs(y) + iabs(z);
  win[wpos % WIN] = mag;
  buf_a[wpos % CORR] = x;
  buf_b[wpos % CORR] = y;
  wpos++;
}

void case1(void) {
  int sum = 0;
  for (int i = 0; i < WIN; i++) {
    sum += win[i] / WIN;
  }
  int mean = sum;
  int mad = 0;
  int crossings = 0;
  int lo = 32767;
  int hi = -32768;
  for (int i = 0; i < WIN; i++) {
    int v = win[i];
    mad += iabs(v - mean) / WIN;
    if (v < lo) { lo = v; }
    if (v > hi) { hi = v; }
    if (i > 0) {
      int prev_above = win[i - 1] > mean;
      int cur_above = v > mean;
      if (prev_above != cur_above) {
        crossings++;
      }
    }
  }
  result_case1 = mean + mad + crossings + (hi - lo);
}

void case2(void) {
  /* 5-point moving average of buf_a */
  for (int i = 0; i < CORR; i++) {
    int acc = 0;
    for (int k = -2; k <= 2; k++) {
      int j = i + k;
      if (j < 0) { j = 0; }
      if (j >= CORR) { j = CORR - 1; }
      acc += buf_a[j];
    }
    filtered[i] = acc / 5;
  }
  /* best lag correlation between filtered and buf_b */
  int best = -32768;
  int best_lag = 0;
  for (int lag = 0; lag < LAGS; lag++) {
    int acc = 0;
    for (int i = 0; i + lag < CORR; i++) {
      acc += (filtered[i] / 16) * (buf_b[i + lag] / 16);
    }
    if (acc > best) {
      best = acc;
      best_lag = lag;
    }
  }
  result_case2 = best_lag * 1000 + (best & 0x3FF);
}

void on_button(int id) {
  if (id == 1) {
    case1();
    amulet_log_value(11, result_case1);
  }
  if (id == 2) {
    case2();
    amulet_log_value(12, result_case2);
  }
}
)";
  *Rate(&spec, EventType::kAccel) = 16.0;
  return spec;
}

AppSpec MakeQuicksort() {
  AppSpec spec;
  spec.name = "quicksort";
  spec.title = "Quicksort";
  // Iterative quicksort with an explicit segment stack: compiles under all
  // four models (FeatureLimited forbids recursion), runs with zero context
  // switches in the sort itself.
  spec.source = R"(
enum { N = 64 };

int data[N];
int seg[2 * N];
int sorted_ok;

void fill(void) {
  int seed = 12345;
  for (int i = 0; i < N; i++) {
    seed = seed * 25173 + 13849;
    data[i] = seed & 0x7FF;
  }
}

void sort(void) {
  int top = 0;
  seg[0] = 0;
  seg[1] = N - 1;
  top = 2;
  while (top > 0) {
    top -= 2;
    int lo = seg[top];
    int hi = seg[top + 1];
    if (lo >= hi) {
      continue;
    }
    int pivot = data[hi];
    int i = lo - 1;
    for (int j = lo; j < hi; j++) {
      if (data[j] <= pivot) {
        i++;
        int t = data[i];
        data[i] = data[j];
        data[j] = t;
      }
    }
    i++;
    int t = data[i];
    data[i] = data[hi];
    data[hi] = t;
    seg[top] = lo;
    seg[top + 1] = i - 1;
    top += 2;
    seg[top] = i + 1;
    seg[top + 1] = hi;
    top += 2;
  }
}

void verify(void) {
  sorted_ok = 1;
  for (int i = 1; i < N; i++) {
    if (data[i - 1] > data[i]) {
      sorted_ok = 0;
    }
  }
}

void on_init(void) {
  sorted_ok = 0;
  amulet_button_subscribe();
}

void on_button(int id) {
  fill();
  sort();
  verify();
}
)";
  return spec;
}

AppSpec MakeQuicksortRecursive() {
  AppSpec spec;
  spec.name = "quicksort_rec";
  spec.title = "Quicksort (recursive)";
  spec.source = R"(
enum { N = 64 };

int data[N];
int sorted_ok;

void fill(void) {
  int seed = 12345;
  for (int i = 0; i < N; i++) {
    seed = seed * 25173 + 13849;
    data[i] = seed & 0x7FF;
  }
}

/* Recurse into the smaller partition and loop on the larger one, bounding
 * the depth at log2(N) — the discipline a recursive app needs to live
 * inside the AFT's fixed stack reservation. */
void qsort_range(int lo, int hi) {
  while (lo < hi) {
    int pivot = data[hi];
    int i = lo - 1;
    for (int j = lo; j < hi; j++) {
      if (data[j] <= pivot) {
        i++;
        int t = data[i];
        data[i] = data[j];
        data[j] = t;
      }
    }
    i++;
    int t = data[i];
    data[i] = data[hi];
    data[hi] = t;
    if (i - lo < hi - i) {
      qsort_range(lo, i - 1);
      lo = i + 1;
    } else {
      qsort_range(i + 1, hi);
      hi = i - 1;
    }
  }
}

void verify(void) {
  sorted_ok = 1;
  for (int i = 1; i < N; i++) {
    if (data[i - 1] > data[i]) {
      sorted_ok = 0;
    }
  }
}

void on_init(void) {
  sorted_ok = 0;
  amulet_button_subscribe();
}

void on_button(int id) {
  fill();
  qsort_range(0, N - 1);
  verify();
}
)";
  return spec;
}

AppSpec MakeCrasher() {
  AppSpec spec;
  spec.name = "crasher";
  spec.title = "Crasher (buggy update)";
  spec.source = R"(
int wild;
int ticks;

void on_init(void) {
  wild = 7168;  /* 0x1C00: OS-owned SRAM, outside this app's region */
  ticks = 0;
  amulet_timer_start(0, 100);
}

void on_timer(int timer_id) {
  ticks++;
  int* p = (int*)wild;
  *p = 0x4141;  /* faults under the isolating models; forces a restart */
}
)";
  *Rate(&spec, EventType::kTimer) = 10.0;
  return spec;
}

}  // namespace

const std::vector<AppSpec>& AmuletAppSuite() {
  static const std::vector<AppSpec> kSuite = {
      MakeBatteryMeter(), MakeClock(),     MakeFallDetection(),
      MakeHr(),           MakeHrLog(),     MakePedometer(),
      MakeRest(),         MakeSun(),       MakeTemperature(),
  };
  return kSuite;
}

const AppSpec& SyntheticApp() {
  static const AppSpec kApp = MakeSynthetic();
  return kApp;
}

const AppSpec& ActivityApp() {
  static const AppSpec kApp = MakeActivity();
  return kApp;
}

const AppSpec& QuicksortApp() {
  static const AppSpec kApp = MakeQuicksort();
  return kApp;
}

const AppSpec& QuicksortRecursiveApp() {
  static const AppSpec kApp = MakeQuicksortRecursive();
  return kApp;
}

const AppSpec& CrasherApp() {
  static const AppSpec kApp = MakeCrasher();
  return kApp;
}

Result<const AppSpec*> FindApp(const std::string& name) {
  for (const AppSpec& app : AmuletAppSuite()) {
    if (app.name == name) {
      return &app;
    }
  }
  for (const AppSpec* app : {&SyntheticApp(), &ActivityApp(), &QuicksortApp(), &CrasherApp()}) {
    if (app->name == name) {
      return app;
    }
  }
  return NotFoundError(StrFormat("unknown app '%s'", name.c_str()));
}

}  // namespace amulet
