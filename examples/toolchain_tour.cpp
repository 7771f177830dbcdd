// Toolchain tour: dumps each Amulet Firmware Toolchain phase's artifacts for
// one small application — the injected API prelude, the phase-1 feature
// audit, the IR before and after phase-2 check insertion, the generated
// MSP430 assembly, and the final phase-4 memory layout.
#include <cstdio>

#include "src/aft/aft.h"

int main(int argc, char** argv) {
  amulet::MemoryModel model = amulet::MemoryModel::kMpu;
  if (argc > 1) {
    std::string arg = argv[1];
    if (arg == "none") {
      model = amulet::MemoryModel::kNoIsolation;
    } else if (arg == "fl") {
      model = amulet::MemoryModel::kFeatureLimited;
    } else if (arg == "sw") {
      model = amulet::MemoryModel::kSoftwareOnly;
    } else if (arg == "mpu") {
      model = amulet::MemoryModel::kMpu;
    } else {
      std::printf("usage: %s [none|fl|sw|mpu]\n", argv[0]);
      return 1;
    }
  }

  const char* kSource = R"(
int samples[8];
int total;

void record(int* where, int value) {
  *where = value;           /* pointer dereference: phase 2 inserts a check */
}

void on_init(void) {
  amulet_timer_start(0, 1000);
}

void on_timer(int timer_id) {
  int v = amulet_temp_read();
  record(&samples[total & 7], v);
  total++;
}
)";
  // FeatureLimited forbids pointers, so there record() takes an index.
  const char* kIndexSource = R"(
int samples[8];
int total;

void record(int slot, int value) {
  samples[slot] = value;    /* runtime index: phase 2 inserts an index check */
}

void on_init(void) {
  amulet_timer_start(0, 1000);
}

void on_timer(int timer_id) {
  int v = amulet_temp_read();
  record(total & 7, v);
  total++;
}
)";

  amulet::AppSource app{
      "tour", model == amulet::MemoryModel::kFeatureLimited ? kIndexSource : kSource};
  auto trace = amulet::TraceAppBuild(app, model);
  if (!trace.ok()) {
    std::printf("build failed: %s\n", trace.status().ToString().c_str());
    return 1;
  }

  std::printf("=============== AFT tour, model = %s ===============\n\n",
              std::string(amulet::MemoryModelName(model)).c_str());
  std::printf("--- injected API prelude (first lines) ---\n");
  int lines = 0;
  for (char c : trace->prelude_source) {
    std::putchar(c);
    if (c == '\n' && ++lines == 5) {
      break;
    }
  }
  std::printf("  ... (%zu bytes total)\n\n", trace->prelude_source.size());

  std::printf("--- phase 1: feature audit ---\n");
  std::printf("uses pointers:      %s\n", trace->audit.uses_pointers ? "yes" : "no");
  std::printf("uses recursion:     %s\n", trace->audit.uses_recursion ? "yes" : "no");
  std::printf("indirect calls:     %s\n", trace->audit.has_indirect_calls ? "yes" : "no");
  std::printf("OS APIs called:    ");
  for (const std::string& api : trace->audit.called_apis) {
    std::printf(" %s", api.c_str());
  }
  std::printf("\n\n");

  std::printf("--- phase 2: IR of record() BEFORE check insertion ---\n");
  // Print just the record() function from the dump.
  auto print_function = [](const std::string& dump, const char* name) {
    size_t pos = dump.find(name);
    if (pos == std::string::npos) {
      return;
    }
    size_t end = dump.find("\ntour_f_", pos + 1);
    std::fwrite(dump.data() + pos, 1,
                (end == std::string::npos ? dump.size() : end) - pos, stdout);
  };
  print_function(trace->ir_before_checks, "tour_f_record:");
  std::printf("\n--- phase 2: IR of record() AFTER check insertion ---\n");
  print_function(trace->ir_after_checks, "tour_f_record:");
  std::printf("\ninserted: %d data check(s), %d code check(s), %d index check(s), "
              "ret-checks on %d function(s)\n\n",
              trace->checks.data_checks, trace->checks.code_checks,
              trace->checks.index_checks, trace->checks.ret_checks);

  if (!trace->ir_after_opt.empty()) {
    // record()'s store stays checked: the callee cannot bound its pointer
    // or index.
    std::printf("--- phase 2.5: IR of on_timer() after check optimization ---\n");
    print_function(trace->ir_after_opt, "tour_f_on_timer:");
    std::printf("\nelided: %d data, %d code, %d index check(s); hoisted: %d "
                "(disable with --no-check-opt / -DAMULET_CHECK_OPT=OFF)\n\n",
                trace->checks.elided_data_checks, trace->checks.elided_code_checks,
                trace->checks.elided_index_checks, trace->checks.hoisted_checks);
  }

  std::printf("--- phase 3: generated MSP430 assembly for record() ---\n");
  size_t fn_pos = trace->assembly.find("tour_f_record:");
  size_t fn_end = trace->assembly.find("\ntour_f_on_init:", fn_pos);
  if (fn_pos != std::string::npos) {
    std::fwrite(trace->assembly.data() + fn_pos, 1,
                (fn_end == std::string::npos ? trace->assembly.size() : fn_end) - fn_pos,
                stdout);
  }

  std::printf("\n--- phase 4: firmware layout ---\n");
  amulet::AftOptions options;
  options.model = model;
  auto firmware = amulet::BuildFirmware({app}, options);
  if (!firmware.ok()) {
    std::printf("link failed: %s\n", firmware.status().ToString().c_str());
    return 1;
  }
  const amulet::AppImage& image = firmware->apps[0];
  std::printf("OS  : MPU view segb1=0x%04x segb2=0x%04x sam=0x%04x\n",
              firmware->os_mpu_segb1, firmware->os_mpu_segb2, firmware->os_mpu_sam);
  std::printf("app : code=[0x%04x,0x%04x) stack=[0x%04x,0x%04x) globals=[0x%04x,0x%04x)\n",
              image.code_lo, image.code_hi, image.data_lo, image.stack_top, image.stack_top,
              image.data_hi);
  std::printf("      MPU view while running: segb1=0x%04x segb2=0x%04x sam=0x%04x\n",
              image.mpu_segb1, image.mpu_segb2, image.mpu_sam);
  std::printf("      bound symbols: D_i=0x%04x (data lo), C_i=0x%04x (code lo)\n",
              image.data_lo, image.code_lo);
  return 0;
}
